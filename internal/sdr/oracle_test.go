package sdr

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/xrand"
)

// acquireOracle is the whole-capture receiver that Frontend replaced,
// kept as its oracle: the front end over every sample, then the AGC's
// sum over every sample, then the gain, and then the DC offset and the
// quantizer as a second pass. It runs on one worker.
func acquireOracle(iq []complex128, centerFreqHz float64, cfg Config, rng *xrand.Source) (*Capture, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gain := math.Pow(10, cfg.Antenna.GainDB/20)
	out := make([]complex128, len(iq))
	for i, v := range iq {
		out[i] = v * complex(gain, 0)
		if cfg.IQImbalanceFrac != 0 {
			out[i] = complex(real(out[i])*(1+cfg.IQImbalanceFrac), imag(out[i]))
		}
		if cfg.ThermalNoiseSigma > 0 {
			out[i] += complex(rng.Normal(0, cfg.ThermalNoiseSigma),
				rng.Normal(0, cfg.ThermalNoiseSigma))
		}
	}
	eng := dsp.Engine{Parallelism: 1}
	if cfg.AGCTargetRMS > 0 {
		var sum float64
		for _, v := range out {
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
		rms := math.Sqrt(sum / math.Max(1, float64(len(out))))
		if rms > 0 {
			agc := cfg.AGCTargetRMS / rms
			eng.Chunks(len(out), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] *= complex(agc, 0)
				}
			})
		}
	}
	cap := &Capture{SampleRate: cfg.SampleRate, CenterFreqHz: centerFreqHz}
	levels := float64(int(1) << (cfg.Bits - 1))
	var clipped atomic.Int64
	eng.Chunks(len(out), func(lo, hi int) {
		var clips int64
		for i := lo; i < hi; i++ {
			if cfg.DCOffset != 0 {
				out[i] += complex(cfg.DCOffset, 0)
			}
			re, cr := quantize(real(out[i]), levels)
			im, ci := quantize(imag(out[i]), levels)
			if cr || ci {
				clips++
			}
			out[i] = complex(re, im)
		}
		clipped.Add(clips)
	})
	cap.Clipped = int(clipped.Load())
	cap.IQ = out
	return cap, nil
}

// cuts returns the piece lengths of the splits the differential tests
// run: fixed sizes, the whole input, and random uneven cuts.
func cuts(n int, seed int64) map[string][]int {
	fixed := func(size int) []int {
		var out []int
		for left := n; left > 0; left -= size {
			out = append(out, min(size, left))
		}
		return out
	}
	out := map[string][]int{"whole": {n}}
	for _, size := range []int{1, 7, 4096, 16384} {
		out[fmt.Sprint(size)] = fixed(size)
	}
	rng := xrand.New(seed)
	var uneven []int
	for left := n; left > 0; {
		size := min(left, 1+rng.Intn(3000))
		if rng.Bool(0.1) {
			size = 0 // empty pieces are legal
		}
		uneven = append(uneven, size)
		left -= size
	}
	out["uneven"] = uneven
	return out
}

// TestFrontendMatchesOracle: a Frontend fed any split of the input, in
// place or into a separate buffer, then Capture, gives the oracle's
// capture, clip count included, at the default DSP worker count and at
// 4 workers.
func TestFrontendMatchesOracle(t *testing.T) {
	type tc struct {
		name   string
		mutate func(*Config)
		scale  float64 // input amplitude; large values rail the ADC
		par    int     // dsp.SetDefaultParallelism for Capture
	}
	cases := []tc{
		{"default", func(c *Config) {}, 1e-3, 0},
		{"agc=off", func(c *Config) { c.AGCTargetRMS = 0 }, 0.3, 0},
		{"iq=+", func(c *Config) { c.IQImbalanceFrac = 0.17 }, 1e-3, 0},
		{"iq=-", func(c *Config) { c.IQImbalanceFrac = -0.13 }, 1e-3, 0},
		{"thermal=0", func(c *Config) { c.ThermalNoiseSigma = 0 }, 1e-3, 0},
		{"dc=+", func(c *Config) { c.DCOffset = 0.15 }, 1e-3, 0},
		{"dc=-", func(c *Config) { c.DCOffset = -0.15 }, 1e-3, 0},
		{"loop,16bit", func(c *Config) { c.Antenna = LoopLA390; c.Bits = 16 }, 1e-4, 0},
		{"clipped", func(c *Config) { c.AGCTargetRMS = 0; c.Antenna = LoopLA390 }, 0.2, 0},
		{"clipped-agc", func(c *Config) { c.AGCTargetRMS = 0.5; c.DCOffset = 0.2 }, 1, 0},
		{"parallel", func(c *Config) { c.IQImbalanceFrac = -0.05 }, 1e-3, 4},
	}
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	var clippedSeen bool
	for _, n := range []int{0, 3, 40000} {
		for ci, c := range cases {
			dsp.SetDefaultParallelism(c.par)
			cfg := DefaultConfig()
			c.mutate(&cfg)
			iq := make([]complex128, n)
			for i := range iq {
				iq[i] = complex(c.scale*math.Cos(0.02*float64(i)), c.scale*math.Sin(0.031*float64(i)))
			}
			want, err := acquireOracle(iq, 970e3, cfg, xrand.New(int64(ci)))
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			clippedSeen = clippedSeen || (c.name == "clipped" && want.Clipped > 0 && want.Clipped < n)
			for split, sizes := range cuts(n, int64(ci)) {
				for _, inPlace := range []bool{false, true} {
					f, err := NewFrontend(cfg, xrand.New(int64(ci)))
					if err != nil {
						t.Fatalf("%s: NewFrontend: %v", c.name, err)
					}
					out := make([]complex128, n)
					src := iq
					if inPlace {
						copy(out, iq)
						src = out
					}
					lo := 0
					for _, size := range sizes {
						f.Process(out[lo:lo+size], src[lo:lo+size])
						lo += size
					}
					where := fmt.Sprintf("%s n=%d split=%s inPlace=%v", c.name, n, split, inPlace)
					// The AGC sum is one serial sum in sample order. A
					// sum of per-piece partials differs from it in the
					// last bits, which the quantizer would hide.
					var sum float64
					if cfg.AGCTargetRMS > 0 {
						for _, v := range out {
							sum += real(v)*real(v) + imag(v)*imag(v)
						}
					}
					if math.Float64bits(f.sum) != math.Float64bits(sum) {
						t.Fatalf("%s: AGC sum %v, want the serial %v", where, f.sum, sum)
					}
					got := f.Capture(out, 970e3)
					if got.Clipped != want.Clipped || got.SampleRate != want.SampleRate ||
						got.CenterFreqHz != want.CenterFreqHz || len(got.IQ) != len(want.IQ) {
						t.Fatalf("%s: capture %d samples, %d clipped, want %d, %d",
							where, len(got.IQ), got.Clipped, len(want.IQ), want.Clipped)
					}
					for i := range want.IQ {
						if math.Float64bits(real(got.IQ[i])) != math.Float64bits(real(want.IQ[i])) ||
							math.Float64bits(imag(got.IQ[i])) != math.Float64bits(imag(want.IQ[i])) {
							t.Fatalf("%s: sample %d = %v, want %v", where, i, got.IQ[i], want.IQ[i])
						}
					}
				}
			}
		}
	}
	if !clippedSeen {
		t.Fatal("the clipped case clipped no sample (or every sample); it tests nothing")
	}
}

// TestCaptureChecksLength: Capture refuses a buffer that does not hold
// exactly the samples Process produced.
func TestCaptureChecksLength(t *testing.T) {
	f, err := NewFrontend(DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, 8)
	f.Process(buf, buf)
	defer func() {
		if recover() == nil {
			t.Fatal("Capture accepted a buffer longer than what Process saw")
		}
	}()
	f.Capture(make([]complex128, 9), 0)
}
