package covert

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"pmuleak/internal/emchannel"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// These tests feed the demodulator hostile inputs: pure noise, tones,
// impulses, DC, clipped garbage, and a target under interrupt storms.
// The invariant everywhere is graceful behaviour — no panics, no
// confident bit streams conjured from nothing.

// The hostile captures are tuned like the reference laptop's: a
// 970 kHz VRM hint with the receiver centered at 1.455 MHz, so the
// hinted spikes sit at ±485 kHz.
const (
	hostileF0     = 970e3
	hostileCenter = 1.455e6
)

func demod(iq []complex128) *Demod {
	cap := &sdr.Capture{IQ: iq, SampleRate: 2.4e6, CenterFreqHz: hostileCenter}
	cfg := DefaultRXConfig()
	cfg.ExpectedF0 = hostileF0
	return Demodulate(cap, cfg)
}

func TestDemodulatePureDC(t *testing.T) {
	iq := make([]complex128, 1<<15)
	for i := range iq {
		iq[i] = 0.3
	}
	d := demod(iq)
	if len(d.Bits) > 16 {
		t.Fatalf("decoded %d bits from DC", len(d.Bits))
	}
}

func TestDemodulateSingleCleanTone(t *testing.T) {
	// An unmodulated carrier is a real VRM with constant load: carrier
	// found, but no bit stream (no edges). The tone sits on the hint's
	// second harmonic.
	f := (2*hostileF0 - hostileCenter) / 2.4e6
	iq := make([]complex128, 1<<15)
	for i := range iq {
		iq[i] = 0.2 * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)))
	}
	d := demod(iq)
	if !d.CarrierFound {
		t.Fatal("clean carrier not detected")
	}
	if len(d.Bits) > 16 {
		t.Fatalf("decoded %d bits from an unmodulated carrier", len(d.Bits))
	}
}

func TestDemodulateImpulses(t *testing.T) {
	rng := xrand.New(1)
	iq := make([]complex128, 1<<15)
	for i := 0; i < 40; i++ {
		iq[rng.Intn(len(iq))] = complex(rng.Normal(0, 5), rng.Normal(0, 5))
	}
	d := demod(iq)
	if len(d.Bits) > 40 {
		t.Fatalf("decoded %d bits from impulses", len(d.Bits))
	}
}

func TestDemodulateRandomCapturesNeverPanic(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 4096 + rng.Intn(1<<14)
		iq := make([]complex128, n)
		switch rng.Intn(4) {
		case 0: // white noise
			for i := range iq {
				iq[i] = complex(rng.Normal(0, 0.2), rng.Normal(0, 0.2))
			}
		case 1: // gated tone with random gating
			f0 := rng.Uniform(-0.4, 0.4)
			on := true
			for i := range iq {
				if rng.Bool(0.001) {
					on = !on
				}
				if on {
					iq[i] = 0.3 * cmplx.Exp(complex(0, 2*math.Pi*f0*float64(i)))
				}
			}
		case 2: // clipped garbage
			for i := range iq {
				iq[i] = complex(float64(rng.Intn(3)-1), float64(rng.Intn(3)-1))
			}
		default: // near silence
			for i := range iq {
				iq[i] = complex(rng.Normal(0, 1e-6), rng.Normal(0, 1e-6))
			}
		}
		d := demod(iq)
		// Invariants that must hold for ANY input.
		if len(d.Powers) != len(d.Bits) {
			return false
		}
		if len(d.Starts) > 0 && len(d.Bits) != len(d.Starts) {
			return false
		}
		for i := 1; i < len(d.Starts); i++ {
			if d.Starts[i] <= d.Starts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLinkSurvivesInterruptStorm(t *testing.T) {
	// A target with 20x the normal interrupt load: the channel may
	// slow down, but the demodulator must not produce garbage bits
	// that alignment counts as a huge insertion burst.
	prof := laptop.Reference()
	prof.Kernel.InterruptRate = 2000
	prof.Kernel.InterruptWorkMax = 80 * sim.Microsecond
	m, d, _, _ := runLink(t, prof, 64, 31, emchannel.DefaultConfig(), sdr.CoilProbe)
	if len(d.Bits) == 0 {
		t.Fatal("storm killed the demodulator outright")
	}
	if m.ErrorRate() > 0.5 {
		t.Fatalf("error rate %v under storm; decoder degraded to garbage", m.ErrorRate())
	}
}

func TestLinkSurvivesExtremeNoise(t *testing.T) {
	// Noise 100x the default: the carrier drowns. The correct outcome
	// is a dead channel (no bits), not a hallucinated stream.
	chanCfg := emchannel.DefaultConfig()
	chanCfg.NoiseSigma = 0.4
	chanCfg.DistanceM = 2.5
	m, d, _, _ := runLink(t, laptop.Reference(), 64, 32, chanCfg, sdr.LoopLA390)
	if d.CarrierFound && len(d.Bits) > 0 && m.ErrorRate() < 0.1 {
		t.Fatalf("confident decode (%v) through impossible noise", m.ErrorRate())
	}
}

func TestLinkZeroPayloadFrame(t *testing.T) {
	// A frame of only preamble+postamble still round-trips.
	prof := laptop.Reference()
	sys := laptop.NewSystem(prof, 33)
	defer sys.Close()
	txCfg := DefaultTXConfig(prof.DefaultSleepPeriod)
	frame := EncodeFrame(nil, txCfg)
	run := SpawnTransmitter(sys.Kernel(), frame, txCfg)
	horizon := AirtimeEstimate(frame, txCfg, prof.Kernel)
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	field := sys.Emanations(horizon, plan)
	rng := xrand.New(34)
	field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng)
	cap := sdr.Acquire(field, plan.CenterFreqHz, sdr.DefaultConfig(), rng.Fork())
	rxCfg := DefaultRXConfig()
	rxCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
	d := Demodulate(cap, rxCfg)
	m := Measure(run, d, txCfg, nil)
	if m.ErrorRate() > 0.15 {
		t.Fatalf("empty-payload frame error rate %v", m.ErrorRate())
	}
}

func TestAllLaptopsDecodeNearField(t *testing.T) {
	// Every Table I profile must sustain the channel at its default
	// rate — the paper's "exists on all systems we evaluated".
	for i, prof := range laptop.Profiles() {
		m, d, _, _ := runLink(t, prof, 48, int64(40+i), emchannel.DefaultConfig(), sdr.CoilProbe)
		if len(d.Bits) == 0 {
			t.Errorf("%s: no bits", prof.Model)
			continue
		}
		if m.ErrorRate() > 0.08 {
			t.Errorf("%s: error rate %v", prof.Model, m.ErrorRate())
		}
	}
}
