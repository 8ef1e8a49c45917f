package emchannel

import (
	"testing"

	"pmuleak/internal/xrand"
)

// TestSubSamplePeriodRejected: the old truncation bug made an
// interferer with PeriodS*sampleRate < 1 silently always-on; NewPath
// now rejects it, and a period that rounds to at least one sample gates
// properly.
func TestSubSamplePeriodRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interferers = []Interferer{{
		Kind:      Pulsed,
		OffsetHz:  100e3,
		Amplitude: 0.5,
		PeriodS:   1e-9, // well under one sample at any practical rate
		Duty:      0.5,
	}}
	if _, err := NewPath(cfg, 2.4e6, 64, xrand.New(1)); err == nil {
		t.Fatal("NewPath accepted a sub-sample interferer gate period")
	}
}

// TestNearSampleGateRounds: a period of 1.6 samples must round to a
// 2-sample gate (the old int() truncation gave 1, halving the period).
func TestNearSampleGateRounds(t *testing.T) {
	rate := 1e6
	cfg := DefaultConfig()
	cfg.NoiseSigma = 0
	cfg.Interferers = []Interferer{{
		Kind:      Pulsed,
		OffsetHz:  0,
		Amplitude: 1,
		PeriodS:   1.6 / rate, // rounds to 2 samples
		Duty:      0.5,        // 1 sample on, 1 off
	}}
	p, err := NewPath(cfg, rate, 32, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, 32)
	p.Process(out, out)
	// Duty 0.5 of a 2-sample gate: every other sample carries the
	// interferer, the rest must be exactly zero (zero input, no noise).
	var on, off int
	for i, v := range out {
		if i%2 == 0 {
			if v == 0 {
				t.Fatalf("gate-on sample %d is zero", i)
			}
			on++
		} else {
			if v != 0 {
				t.Fatalf("gate-off sample %d carries interferer %v", i, v)
			}
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatal("gate did not alternate")
	}
}

func TestNewPathReturnsError(t *testing.T) {
	bad := DefaultConfig()
	bad.DistanceM = -1
	if _, err := NewPath(bad, 2.4e6, 16, xrand.New(1)); err == nil {
		t.Fatal("NewPath accepted invalid config")
	}
	if _, err := NewPath(DefaultConfig(), 0, 16, xrand.New(1)); err == nil {
		t.Fatal("NewPath accepted zero sample rate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply did not panic on invalid config")
		}
	}()
	Apply(make([]complex128, 16), 2.4e6, bad, xrand.New(1))
}
