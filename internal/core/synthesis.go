package core

import (
	"time"

	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// channelSeedOffset derives a covert-style capture's channel stream
// from the testbed seed; the radio draws from its fork.
const channelSeedOffset = 104729

// emission is what a capture is synthesized from: a field already
// rendered (a covert run's transmitter trace), or a system whose
// emanations over [0, horizon) are rendered straight into the capture's
// buffer.
type emission struct {
	plan    laptop.EmanationPlan
	field   []complex128
	sys     *laptop.System
	horizon sim.Time
}

// synthSpans is where one synthesis spent its time: the render's wall
// time, and the summed busy time of the channel's and the radio's
// calls. When they run as stages of the render, the three overlap.
type synthSpans struct{ emit, channel, radio time.Duration }

// synthesize is the one path from an emission to a capture: the
// testbed's channel, then its radio (tuned to the plan's rate), in one
// pooled buffer that becomes the capture. The caller owns the capture
// and must Recycle it; a field is only read.
//
// The random streams are the callers' own, and their order is fixed:
//   - forked (the keystroke captures): the channel draws from
//     rng.Fork() and the radio from the next rng.Fork(), both taken
//     before either draws. Neither depends on the other's draws, so
//     both run as stages of the render, on each piece as soon as it is
//     final, while the VRM walk goes on.
//   - otherwise: the channel draws from rng and the radio from
//     rng.Fork() taken after the channel's last draw. The channel runs
//     as a stage of the render (or over the field); the radio then runs
//     in place over the finished buffer.
//
// Either way the capture is bit for bit emchannel.Apply then
// sdr.Acquire over the whole emission: the channel and the radio carry
// their state from piece to piece, and the radio's AGC gain waits for
// its sum over the whole capture.
func (tb *Testbed) synthesize(e emission, rng *xrand.Source, forked bool) (*sdr.Capture, synthSpans) {
	n := len(e.field)
	if e.sys != nil {
		n = e.plan.SampleCount(e.horizon)
	}
	chRng := rng
	var radioRng *xrand.Source
	if forked {
		chRng, radioRng = rng.Fork(), rng.Fork()
	}
	path, err := emchannel.NewPath(tb.Channel, e.plan.SampleRate, n, chRng)
	if err != nil {
		panic(err)
	}
	radio := tb.Radio
	radio.SampleRate = e.plan.SampleRate
	var fe *sdr.Frontend
	if forked {
		fe = newFrontend(radio, radioRng)
	}

	var sp synthSpans
	process := func(dst, src []complex128) {
		t0 := time.Now()
		path.Process(dst, src)
		t1 := time.Now()
		sp.channel += t1.Sub(t0)
		if fe != nil {
			fe.Process(dst, dst)
			sp.radio += time.Since(t1)
		}
	}
	out := dsp.GetIQ(n)
	if e.sys != nil {
		t0 := time.Now()
		e.sys.EmanationsInto(out, e.horizon, e.plan, func(piece []complex128) { process(piece, piece) })
		sp.emit = time.Since(t0)
	} else {
		process(out, e.field)
	}
	t0 := time.Now()
	if fe == nil {
		fe = newFrontend(radio, rng.Fork())
		fe.Process(out, out)
	}
	cap := fe.Capture(out, e.plan.CenterFreqHz)
	sp.radio += time.Since(t0)
	return cap, sp
}

func newFrontend(cfg sdr.Config, rng *xrand.Source) *sdr.Frontend {
	fe, err := sdr.NewFrontend(cfg, rng)
	if err != nil {
		panic(err)
	}
	return fe
}

// Capture renders the emanations of sys over [0, horizon) under plan,
// runs them through the testbed's channel and radio, and returns the
// capture. The channel draws from the testbed's channel stream and the
// radio from its fork, as in a covert run. Call after sys has run past
// horizon; the caller owns the capture and must Recycle it.
func (tb *Testbed) Capture(sys *laptop.System, horizon sim.Time, plan laptop.EmanationPlan) *sdr.Capture {
	cap, _ := tb.synthesize(emission{plan: plan, sys: sys, horizon: horizon},
		xrand.New(tb.Seed+channelSeedOffset), false)
	return cap
}
