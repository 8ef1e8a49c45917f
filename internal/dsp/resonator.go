package dsp

import (
	"math"
	"math/cmplx"
)

// Resonator tracks the amplitude of one narrowband component at an
// exact (not bin-quantized) baseband frequency: a single-pole complex
// resonator — an exponentially weighted sliding DFT —
//
//	z[n] = decay * e^{i·2π·f/fs} * z[n-1] + x[n]
//
// whose magnitude, scaled by (1-decay), estimates the component's
// amplitude with a time constant of 1/(1-decay) samples and an effective
// bandwidth of roughly (1-decay)·fs/π Hz.
//
// The covert receiver uses a bank of them as the practical form of the
// paper's Eq. (1): summing the tracked magnitudes of the VRM spike set S
// gives the per-sample acquisition trace Y[n] without FFT-grid
// scalloping loss.
type Resonator struct {
	rot complex128
	// Z is the resonator state, carried sample to sample (and across
	// chunk boundaries and checkpoints by its owner).
	Z complex128
}

// NewResonator returns a resonator with zero state at the normalized
// frequency norm (f/fs, may be negative); decay must be in (0, 1).
func NewResonator(norm, decay float64) Resonator {
	if decay <= 0 || decay >= 1 {
		panic("dsp: Resonator decay must be in (0,1)")
	}
	return Resonator{rot: cmplx.Exp(complex(0, 2*math.Pi*norm)) * complex(decay, 0)}
}

// Step advances the resonator by one input sample and returns the new
// state z; |z|·(1-decay) is the component's amplitude estimate. Step is
// small enough to inline into a caller's per-sample loop.
func (r *Resonator) Step(x complex128) complex128 {
	r.Z = r.Z*r.rot + x
	return r.Z
}

// DecayForTimeConstant returns the decay factor whose step-response time
// constant is tc seconds at the given sample rate.
func DecayForTimeConstant(tc, sampleRate float64) float64 {
	samples := tc * sampleRate
	if samples < 1 {
		samples = 1
	}
	return 1 - 1/samples
}
