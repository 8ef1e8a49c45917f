package sdr

import (
	"math"
	"math/cmplx"
	"testing"

	"pmuleak/internal/xrand"
)

// quietConfig returns a receiver with every stochastic or confounding
// stage disabled, so the tests below see exactly the impairment under
// test.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.ThermalNoiseSigma = 0
	cfg.AGCTargetRMS = 0
	cfg.DCOffset = 0
	cfg.IQImbalanceFrac = 0
	return cfg
}

// acquire runs iq through a Frontend built from cfg in one piece.
func acquire(t *testing.T, iq []complex128, cfg Config) *Capture {
	t.Helper()
	f, err := NewFrontend(cfg, xrand.New(1))
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	out := make([]complex128, len(iq))
	f.Process(out, iq)
	return f.Capture(out, 0)
}

// TestNegativeDCOffsetApplied pins the signed-impairment contract: a
// negative DCOffset validates and shifts the capture the other way. The
// historical `> 0` guard silently dropped it, making -0.05 behave as 0.
func TestNegativeDCOffsetApplied(t *testing.T) {
	iq := make([]complex128, 4096)
	for sign := -1.0; sign <= 1.0; sign += 2 {
		cfg := quietConfig()
		cfg.DCOffset = sign * 0.05
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate(DCOffset=%v): %v", cfg.DCOffset, err)
		}
		cap := acquire(t, iq, cfg)
		var mean complex128
		for _, v := range cap.IQ {
			mean += v
		}
		mean /= complex(float64(len(cap.IQ)), 0)
		// Quantization rounds 0.05*128 = 6.4 to 6/128.
		want := sign * math.Round(0.05*128) / 128
		if math.Abs(real(mean)-want) > 1e-12 || imag(mean) != 0 {
			t.Fatalf("DCOffset=%v: capture mean = %v, want %v", cfg.DCOffset, mean, want)
		}
	}
}

// TestNegativeIQImbalanceApplied pins the same contract for the I/Q gain
// mismatch: negative values scale the I path down instead of being
// silently ignored.
func TestNegativeIQImbalanceApplied(t *testing.T) {
	iq := make([]complex128, 4096)
	for i := range iq {
		iq[i] = complex(0.5, 0.5)
	}
	cfg := quietConfig()
	cfg.IQImbalanceFrac = -0.1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate(IQImbalanceFrac=-0.1): %v", err)
	}
	cap := acquire(t, iq, cfg)
	// I path scaled by 1-0.1 = 0.9: 0.45*128 = 57.6 rounds to 58.
	wantRe, wantIm := math.Round(0.5*0.9*128)/128, math.Round(0.5*128)/128
	got := cap.IQ[17]
	if real(got) != wantRe || imag(got) != wantIm {
		t.Fatalf("IQImbalanceFrac=-0.1: sample = %v, want (%v,%v)", got, wantRe, wantIm)
	}
	if real(got) >= imag(got) {
		t.Fatalf("negative imbalance must leave I below Q, got %v", got)
	}
}

// TestSignedImpairmentBounds pins the validation range: magnitude is
// bounded at 0.2 on both sides.
func TestSignedImpairmentBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"dc -0.2", func(c *Config) { c.DCOffset = -0.2 }, true},
		{"dc -0.21", func(c *Config) { c.DCOffset = -0.21 }, false},
		{"iq -0.2", func(c *Config) { c.IQImbalanceFrac = -0.2 }, true},
		{"iq -0.21", func(c *Config) { c.IQImbalanceFrac = -0.21 }, false},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestDurationZeroSampleRate pins the hand-built-capture contract: a
// capture with no sample rate reports zero duration, not +Inf (nor NaN
// when it is also empty).
func TestDurationZeroSampleRate(t *testing.T) {
	c := &Capture{IQ: make([]complex128, 100)}
	if d := c.Duration(); d != 0 {
		t.Fatalf("Duration with zero SampleRate = %v, want 0", d)
	}
	empty := &Capture{}
	if d := empty.Duration(); d != 0 || math.IsNaN(d) {
		t.Fatalf("Duration of empty zero-rate capture = %v, want 0", d)
	}
	neg := &Capture{IQ: make([]complex128, 10), SampleRate: -1}
	if d := neg.Duration(); d != 0 {
		t.Fatalf("Duration with negative SampleRate = %v, want 0", d)
	}
}

// TestRecyclePoison pins the debug-mode use-after-recycle detector: an
// aliased slice reads NaN after Recycle instead of stale samples.
func TestRecyclePoison(t *testing.T) {
	recyclePoison.Store(true)
	defer recyclePoison.Store(false)
	cap := acquire(t, make([]complex128, 2048), quietConfig())
	alias := cap.IQ
	if cap.Recycled() {
		t.Fatal("fresh capture reports Recycled")
	}
	cap.Recycle()
	if !cap.Recycled() {
		t.Fatal("capture does not report Recycled after Recycle")
	}
	for i, v := range alias {
		if !cmplx.IsNaN(v) {
			t.Fatalf("aliased sample %d = %v after recycle, want NaN poison", i, v)
		}
	}
}
