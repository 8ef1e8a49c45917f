package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"pmuleak/internal/xrand"
)

func resTone(n int, f, amp float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(amp, 0) * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)))
	}
	return x
}

// resonatorBank is the Eq. (1) acquisition trace built from Resonator
// steps the way the covert receiver builds it: per sample, the sum of
// one resonator's magnitude per offset, scaled by (1-decay).
func resonatorBank(x []complex128, offsets []float64, decay float64) []float64 {
	bank := make([]Resonator, len(offsets))
	for i, f := range offsets {
		bank[i] = NewResonator(f, decay)
	}
	out := make([]float64, len(x))
	for n, v := range x {
		var sum float64
		for i := range bank {
			sum += cmplx.Abs(bank[i].Step(v))
		}
		out[n] = sum * (1 - decay)
	}
	return out
}

func TestResonatorTracksOnFrequencyTone(t *testing.T) {
	const f = 0.123 // normalized
	x := resTone(20000, f, 2.5)
	y := resonatorBank(x, []float64{f}, 0.995)
	// After several time constants the output settles at the amplitude.
	settled := y[10000:]
	if m := Mean(settled); math.Abs(m-2.5) > 0.05 {
		t.Fatalf("settled output = %v, want 2.5", m)
	}
}

func TestResonatorTracksOffGridFrequency(t *testing.T) {
	// A frequency that falls exactly between FFT bins must be tracked
	// at full amplitude; that is the whole point versus slidingDFT.
	const m = 256
	f := (41.5) / float64(m) // half-bin offset for an m-point DFT
	x := resTone(20000, f, 1.0)
	y := resonatorBank(x, []float64{f}, 0.995)
	if got := Mean(y[10000:]); math.Abs(got-1.0) > 0.03 {
		t.Fatalf("off-grid amplitude = %v, want 1.0", got)
	}
}

func TestResonatorRejectsDistantTone(t *testing.T) {
	const fTone, fTrack = 0.2, 0.3
	x := resTone(20000, fTone, 1.0)
	y := resonatorBank(x, []float64{fTrack}, 0.995)
	if got := Mean(y[10000:]); got > 0.05 {
		t.Fatalf("distant tone leaked: %v", got)
	}
}

func TestResonatorStepResponseTimeConstant(t *testing.T) {
	const f = 0.1
	const decay = 0.99 // time constant 100 samples
	x := resTone(2000, f, 1.0)
	y := resonatorBank(x, []float64{f}, decay)
	// At one time constant the response is ~1-1/e of final.
	if y[100] < 0.55 || y[100] > 0.72 {
		t.Fatalf("response at tau = %v, want ~0.63", y[100])
	}
	if y[1000] < 0.99 {
		t.Fatalf("response at 10 tau = %v", y[1000])
	}
}

func TestResonatorSumsMultipleComponents(t *testing.T) {
	x := resTone(20000, 0.1, 1.0)
	x2 := resTone(20000, -0.2, 0.5)
	for i := range x {
		x[i] += x2[i]
	}
	y := resonatorBank(x, []float64{0.1, -0.2}, 0.995)
	if got := Mean(y[10000:]); math.Abs(got-1.5) > 0.05 {
		t.Fatalf("summed amplitude = %v, want 1.5", got)
	}
}

func TestResonatorTracksAmplitudeModulation(t *testing.T) {
	// On-off keyed tone: output must follow the envelope.
	const f = 0.15
	n := 30000
	x := make([]complex128, n)
	for i := range x {
		amp := 1.0
		if (i/5000)%2 == 1 {
			amp = 0
		}
		x[i] = complex(amp, 0) * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)))
	}
	y := resonatorBank(x, []float64{f}, 0.998) // tau = 500 samples
	on := Mean(y[3000:5000])
	off := Mean(y[8000:10000])
	if off > on/10 {
		t.Fatalf("envelope not tracked: on %v off %v", on, off)
	}
}

func TestResonatorBadDecayPanics(t *testing.T) {
	for _, d := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v accepted", d)
				}
			}()
			NewResonator(0.1, d)
		}()
	}
}

func TestResonatorNoiseFloorScales(t *testing.T) {
	rng := xrand.New(40)
	x := make([]complex128, 50000)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	// Narrower resonator (higher decay) -> lower noise output.
	wide := Mean(resonatorBank(x, []float64{0.1}, 0.99)[10000:])
	narrow := Mean(resonatorBank(x, []float64{0.1}, 0.999)[10000:])
	if narrow >= wide {
		t.Fatalf("narrowband noise %v not below wideband %v", narrow, wide)
	}
}

func TestResonatorBandwidthAndDecayHelpers(t *testing.T) {
	d := DecayForTimeConstant(100e-6, 2.4e6) // 240 samples
	if math.Abs(d-(1-1.0/240)) > 1e-12 {
		t.Fatalf("decay = %v", d)
	}
	// Degenerate time constant clamps to one sample.
	if d := DecayForTimeConstant(0, 2.4e6); d != 0 {
		t.Fatalf("zero tc decay = %v, want 0", d)
	}
}
