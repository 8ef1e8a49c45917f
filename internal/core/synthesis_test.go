package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/workload"
	"pmuleak/internal/xrand"
)

// The sequential chain synthesize replaced: the whole emission, then
// emchannel.Apply over all of it, then sdr.Acquire over all of that,
// each into a buffer of its own. The three functions below are the
// capture halves of PrepareKeylog, PrepareCovert and the covert-style
// spectrogram captures as they were, kept as synthesize's oracle.

// sequentialKeylog is PrepareKeylog's capture and fault injection.
func sequentialKeylog(tb *Testbed, cfg KeylogConfig) (*sdr.Capture, faults.Report) {
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()
	rng := xrand.New(tb.Seed + 500)
	events := keylog.Type(cfg.Text, 200*sim.Millisecond, keylog.DefaultTypistConfig(), rng)
	horizon := keylog.SessionHorizon(events)
	keylog.Inject(sys.Kernel(), events, horizon, keylog.DefaultHandlingConfig(), rng.Fork())
	sys.Run(horizon)

	plan := tb.keylogPlan()
	raw := sys.Emanations(horizon, plan)
	field := emchannel.Apply(raw, plan.SampleRate, tb.Channel, rng.Fork())
	dsp.PutIQ(raw)
	radio := tb.Radio
	radio.SampleRate = plan.SampleRate
	cap := sdr.Acquire(field, plan.CenterFreqHz, radio, rng.Fork())
	dsp.PutIQ(field)
	return cap, injectFaults(tb, cfg.Faults, cap)
}

// sequentialCovert is PrepareCovert's capture and fault injection over
// the same transmitter trace.
func sequentialCovert(tb *Testbed, cfg CovertConfig) (*sdr.Capture, faults.Report) {
	cfg.fill(tb)
	tr := tb.transmitterTrace(cfg)
	rng := xrand.New(tb.Seed + 104729)
	field := emchannel.Apply(tr.field, tr.plan.SampleRate, tb.Channel, rng)
	cap := sdr.Acquire(field, tr.plan.CenterFreqHz, tb.Radio, rng.Fork())
	dsp.PutIQ(field)
	return cap, injectFaults(tb, cfg.Faults, cap)
}

// sequentialCapture is the covert-style capture of a rendered system.
func sequentialCapture(tb *Testbed, sys *laptop.System, horizon sim.Time, plan laptop.EmanationPlan) *sdr.Capture {
	raw := sys.Emanations(horizon, plan)
	rng := xrand.New(tb.Seed + 104729)
	field := emchannel.Apply(raw, plan.SampleRate, tb.Channel, rng)
	dsp.PutIQ(raw)
	radio := tb.Radio
	radio.SampleRate = plan.SampleRate
	cap := sdr.Acquire(field, plan.CenterFreqHz, radio, rng.Fork())
	dsp.PutIQ(field)
	return cap
}

func injectFaults(tb *Testbed, cfg faults.Config, cap *sdr.Capture) faults.Report {
	if !cfg.Enabled() {
		return faults.Report{}
	}
	return faults.MustNew(cfg, tb.Seed+faultSeedOffset).Apply(cap)
}

// sameCapture fails unless got is want bit for bit.
func sameCapture(t *testing.T, where string, got, want *sdr.Capture) {
	t.Helper()
	if got.Clipped != want.Clipped || got.SampleRate != want.SampleRate ||
		got.CenterFreqHz != want.CenterFreqHz || len(got.IQ) != len(want.IQ) {
		t.Fatalf("%s: capture %d samples at %v S/s, %v Hz, %d clipped; want %d, %v, %v, %d", where,
			len(got.IQ), got.SampleRate, got.CenterFreqHz, got.Clipped,
			len(want.IQ), want.SampleRate, want.CenterFreqHz, want.Clipped)
	}
	for i := range want.IQ {
		if math.Float64bits(real(got.IQ[i])) != math.Float64bits(real(want.IQ[i])) ||
			math.Float64bits(imag(got.IQ[i])) != math.Float64bits(imag(want.IQ[i])) {
			t.Fatalf("%s: sample %d = %v, want %v", where, i, got.IQ[i], want.IQ[i])
		}
	}
}

// synthesisTestbeds returns, for one laptop, the placements the
// differential tests run: the near-field default, the NLoS office
// (loop antenna, wall, a carrier, a pulsed and a broadband interferer),
// and the near field with every fault class on.
func synthesisTestbeds(prof laptop.Profile, seed int64) map[string]struct {
	tb     *Testbed
	faults faults.Config
} {
	nlos := NLoSOffice(seed)
	nlos.Profile = prof
	nlos.Channel.Interferers = append(nlos.Channel.Interferers,
		emchannel.Interferer{Kind: emchannel.CW, OffsetHz: 21e3, Amplitude: 0.001})
	return map[string]struct {
		tb     *Testbed
		faults faults.Config
	}{
		"near": {NewTestbed(WithLaptop(prof), WithSeed(seed)), faults.Config{}},
		"nlos": {nlos, faults.Config{}},
		"faults": {NewTestbed(WithLaptop(prof), WithSeed(seed)), faults.Config{
			DropRatePerS: 40, ClockPPM: 30, DriftPPMPerS: 5, GainStepRatePerS: 4,
			SaturationRatePerS: 6, TruncateProb: 1,
		}},
	}
}

// TestSynthesisMatchesSequential pins synthesize to the sequential
// chain bit for bit: the staged keystroke captures, the covert captures
// over the transmitter trace, and the covert-style captures of a
// rendered system, for the six laptops, near field, NLoS and faulted,
// with the walk overlapped (GOMAXPROCS 4) and walked first (1).
func TestSynthesisMatchesSequential(t *testing.T) {
	for _, procs := range synthesisProcs {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for pi, prof := range laptop.Profiles()[:synthesisLaptops] {
				for name, c := range synthesisTestbeds(prof, int64(31+pi)) {
					where := fmt.Sprintf("%s/%s", prof.Model, name)

					kcfg := KeylogConfig{Text: "hi yo", Faults: c.faults}
					wantCap, wantRep := sequentialKeylog(c.tb, kcfg)
					got := c.tb.PrepareKeylog(kcfg)
					sameCapture(t, where+"/keylog", got.Cap, wantCap)
					if !reflect.DeepEqual(got.Faults, wantRep) {
						t.Fatalf("%s/keylog: faults %+v, want %+v", where, got.Faults, wantRep)
					}
					got.Cap.Recycle()

					ccfg := CovertConfig{PayloadBits: 24, Faults: c.faults}
					wantCap, wantRep = sequentialCovert(c.tb, ccfg)
					gotC := c.tb.PrepareCovert(ccfg)
					sameCapture(t, where+"/covert", gotC.Cap, wantCap)
					if !reflect.DeepEqual(gotC.Faults, wantRep) {
						t.Fatalf("%s/covert: faults %+v, want %+v", where, gotC.Faults, wantRep)
					}
					gotC.Cap.Recycle()
				}
			}
		})
	}
}

// TestCaptureMatchesSequential: Testbed.Capture, the covert-style
// capture of a rendered system, under both tunings.
func TestCaptureMatchesSequential(t *testing.T) {
	boot := func(prof laptop.Profile, horizon sim.Time) *laptop.System {
		sys := laptop.NewSystem(prof, 4)
		workload.Microbench(sys.Kernel(), 3*sim.Millisecond, 2*sim.Millisecond, 8)
		sys.Run(horizon)
		return sys
	}
	const horizon = 45 * sim.Millisecond
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, prof := range []laptop.Profile{laptop.Reference(), laptop.Profiles()[5]} {
				for name, c := range synthesisTestbeds(prof, 8) {
					for _, keyPlan := range []bool{false, true} {
						where := fmt.Sprintf("%s/%s/keylogplan=%v", prof.Model, name, keyPlan)
						a, b := boot(prof, horizon), boot(prof, horizon)
						plan := a.DefaultPlan()
						if keyPlan {
							plan = c.tb.keylogPlan()
						}
						want := sequentialCapture(c.tb, a, horizon, plan)
						got := c.tb.Capture(b, horizon, plan)
						a.Close()
						b.Close()
						sameCapture(t, where, got, want)
						got.Recycle()
					}
				}
			}
		})
	}
}
