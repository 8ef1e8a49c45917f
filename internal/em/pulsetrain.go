package em

import (
	"math"
	"math/cmplx"

	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// This file implements the high-fidelity rendering mode: instead of
// synthesizing oscillators at assumed harmonic frequencies, each VRM
// current burst is convolved with the impulse response of the emission
// path (a damped resonance). The spectral structure then EMERGES from
// the pulse timing itself: a periodic train produces the comb at f0 and
// its harmonics, pulse skipping at light load produces sub-harmonics and
// a collapsed fundamental, period jitter broadens the spikes, and
// multi-phase interleaving partially cancels the fundamental while
// reinforcing N·f0 — none of which needs to be assumed.
//
// The calibrated experiment pipeline uses the oscillator model in
// Render (fast, directly parameterized); RenderPulseTrain exists for
// physical-fidelity studies and for validating the oscillator model's
// assumptions (see the package tests and cmd/emscope -hifi).

// PulseTrainConfig describes the high-fidelity emission model.
type PulseTrainConfig struct {
	// CenterFreqHz and SampleRate define the receiver baseband, as in
	// Config.
	CenterFreqHz float64
	SampleRate   float64

	// ResonanceHz is the natural frequency of the radiating structure
	// (the VRM's inductor loop and nearby traces). Emission is
	// strongest where the pulse comb and the resonance overlap. Zero
	// defaults to 1.2x the center frequency.
	ResonanceHz float64

	// QualityFactor sets the resonance damping (ringdown length in
	// cycles). Buck-converter parasitics give a low Q of a few.
	QualityFactor float64

	// EmitterGain scales burst charge into received field amplitude.
	EmitterGain float64
}

// DefaultPulseTrainConfig matches the oscillator model's default tuning.
func DefaultPulseTrainConfig() PulseTrainConfig {
	return PulseTrainConfig{
		CenterFreqHz:  1.5 * 970e3,
		SampleRate:    2.4e6,
		ResonanceHz:   1.45 * 970e3,
		QualityFactor: 3,
		EmitterGain:   1.0,
	}
}

// Validate reports configuration errors.
func (c PulseTrainConfig) Validate() error {
	if c.SampleRate <= 0 {
		return errPositive("SampleRate")
	}
	if c.CenterFreqHz <= 0 {
		return errPositive("CenterFreqHz")
	}
	if c.ResonanceHz < 0 {
		return errPositive("ResonanceHz")
	}
	if c.QualityFactor <= 0 {
		return errPositive("QualityFactor")
	}
	if c.EmitterGain < 0 {
		return errPositive("EmitterGain")
	}
	return nil
}

type fieldError string

func (e fieldError) Error() string { return "em: " + string(e) + " must be positive" }

func errPositive(field string) error { return fieldError(field) }

// RenderPulseTrain converts a VRM pulse train into an IQ baseband stream
// by superposing one ringdown per pulse, in train order, as the train is
// walked. The result has int(horizon*SampleRate) samples.
func RenderPulseTrain(train vrm.Train, horizon sim.Time, cfg PulseTrainConfig, rng *xrand.Source) []complex128 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := int(horizon.Seconds() * cfg.SampleRate)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	f0 := cfg.ResonanceHz
	if f0 == 0 {
		f0 = 1.2 * cfg.CenterFreqHz
	}

	// Baseband impulse response of the resonance: a complex
	// exponential at (f0 - fc) decaying over Q cycles of f0.
	ringCycles := cfg.QualityFactor
	ringSeconds := ringCycles / f0
	kernelLen := int(ringSeconds*cfg.SampleRate*4) + 2 // 4 time constants
	kernel := make([]complex128, kernelLen)
	offset := 2 * math.Pi * (f0 - cfg.CenterFreqHz) / cfg.SampleRate
	decayPerSample := 1 / (ringSeconds * cfg.SampleRate)
	for i := range kernel {
		amp := math.Exp(-float64(i) * decayPerSample)
		kernel[i] = cmplx.Exp(complex(0, offset*float64(i))) * complex(amp, 0)
	}

	// Superpose one scaled kernel per pulse. Downconversion to
	// baseband turns the pulse's arrival time into a carrier phase of
	// exp(-i 2π fc t): that term is what makes a periodic train add
	// coherently into comb lines while jittered or interleaved trains
	// partially cancel.
	train(func(p vrm.Pulse) {
		tp := p.At.Seconds()
		idx := int(tp * cfg.SampleRate)
		if idx >= n {
			return
		}
		theta := -2 * math.Pi * math.Mod(cfg.CenterFreqHz*tp, 1)
		phase := cmplx.Exp(complex(0, theta))
		scale := complex(cfg.EmitterGain*p.Charge*cfg.SampleRate, 0) * phase
		end := idx + kernelLen
		if end > n {
			end = n
		}
		for i := idx; i < end; i++ {
			out[i] += scale * kernel[i-idx]
		}
	})
	_ = rng // reserved for receiver-side effects; emission here is deterministic
	return out
}
