// Package sdr models the attacker's receiver: an RTL-SDR-v3-class
// software-defined radio fed by either a tiny hand-wound coil probe
// (near-field placement) or a 30 cm loop antenna with a built-in 20 dB
// amplifier (distance / through-wall placement). The model captures the
// artifacts that matter to the decoder: antenna gain, front-end thermal
// noise, automatic gain control, and 8-bit quantization.
package sdr

import (
	"fmt"
	"math"
	"sync/atomic"

	"pmuleak/internal/dsp"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// Receiver telemetry. Captures, samples, and clipped counts follow
// deterministically from the experiment configuration; recycles count
// Capture.Recycle calls (the capture's buffer returning to the IQ
// pool).
var (
	sdrCaptures = telemetry.NewCounter("sdr.captures")
	sdrSamples  = telemetry.NewCounter("sdr.samples")
	sdrClipped  = telemetry.NewCounter("sdr.samples_clipped")
	sdrRecycles = telemetry.NewCounter("sdr.captures_recycled")
)

// Antenna describes the pickup device.
type Antenna struct {
	Name   string
	GainDB float64 // amplitude gain of antenna + integrated amplifier
}

// CoilProbe is the paper's coin-sized 33-turn, 5 mm magnetic probe
// (< $5, no amplifier).
var CoilProbe = Antenna{Name: "coil-probe-5mm", GainDB: 0}

// LoopLA390 is the AOR LA390 30 cm loop antenna with its built-in 20 dB
// amplifier, used for the distance and through-wall experiments.
var LoopLA390 = Antenna{Name: "AOR-LA390", GainDB: 20}

// Config describes the receiver chain.
type Config struct {
	Antenna    Antenna
	SampleRate float64 // complex samples per second
	// Bits is the ADC resolution per I/Q component (RTL-SDR: 8).
	Bits int
	// ThermalNoiseSigma is the front-end noise added after the antenna,
	// per I/Q component, relative to a full-scale input of 1.0.
	ThermalNoiseSigma float64
	// AGCTargetRMS is the RMS level (fraction of full scale) the
	// automatic gain control drives the signal to before quantization.
	// Zero disables AGC (unity digital gain).
	AGCTargetRMS float64
	// DCOffset adds the direct-conversion receiver's characteristic DC
	// spike at the tuning frequency (fraction of full scale, either
	// sign — real tuners settle on both sides of zero). RTL-SDR
	// captures show it prominently at baseband zero.
	DCOffset float64
	// IQImbalanceFrac is the gain mismatch between the I and Q paths;
	// it mirrors every signal faintly across zero frequency. Negative
	// values model a Q path stronger than the I path and are just as
	// physical as positive ones.
	IQImbalanceFrac float64
}

// DefaultConfig returns an RTL-SDR v3 at its maximum stable rate.
func DefaultConfig() Config {
	return Config{
		Antenna:           CoilProbe,
		SampleRate:        2.4e6,
		Bits:              8,
		ThermalNoiseSigma: 0.002,
		AGCTargetRMS:      0.25,
		DCOffset:          0.01,
		IQImbalanceFrac:   0.01,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("sdr: SampleRate must be positive")
	}
	if c.Bits < 1 || c.Bits > 16 {
		return fmt.Errorf("sdr: Bits %d out of range [1,16]", c.Bits)
	}
	if c.ThermalNoiseSigma < 0 {
		return fmt.Errorf("sdr: negative ThermalNoiseSigma")
	}
	if c.AGCTargetRMS < 0 || c.AGCTargetRMS > 0.5 {
		return fmt.Errorf("sdr: AGCTargetRMS %v out of range [0,0.5]", c.AGCTargetRMS)
	}
	// Both impairments are signed: a DC spike can sit on either side of
	// zero and the Q path can be the stronger one. Validation bounds the
	// magnitude only; Frontend applies them on != 0 (a > 0 guard here
	// used to silently drop negative values).
	if math.Abs(c.DCOffset) > 0.2 {
		return fmt.Errorf("sdr: DCOffset %v out of range [-0.2,0.2]", c.DCOffset)
	}
	if math.Abs(c.IQImbalanceFrac) > 0.2 {
		return fmt.Errorf("sdr: IQImbalanceFrac %v out of range [-0.2,0.2]", c.IQImbalanceFrac)
	}
	return nil
}

// Capture is a finished acquisition.
type Capture struct {
	IQ           []complex128 // dequantized samples in [-1, 1]
	SampleRate   float64
	CenterFreqHz float64
	// Clipped is the number of samples that hit the ADC rails.
	Clipped int

	// recycled latches once Recycle has returned the buffer to the
	// pool, making further calls no-ops.
	recycled atomic.Bool
}

// Duration returns the capture length in seconds. A hand-built capture
// with a zero (or negative) SampleRate has no meaningful duration and
// reports 0 — the naive division used to return +Inf, or NaN when the
// capture was also empty.
func (c *Capture) Duration() float64 {
	if c.SampleRate <= 0 {
		return 0
	}
	return float64(len(c.IQ)) / c.SampleRate
}

// Recycle returns the capture's sample buffer to the process pool and
// clears the reference. Call it only once the capture has been fully
// consumed (demodulated / detected / rendered) — any slice still
// aliasing c.IQ becomes invalid. Recycle is idempotent: the second and
// later calls are no-ops (a double Recycle used to double-count the
// telemetry and hand the pool a nil buffer), and concurrent calls
// recycle the buffer exactly once.
func (c *Capture) Recycle() {
	if !c.recycled.CompareAndSwap(false, true) {
		return
	}
	sdrRecycles.Inc()
	if recyclePoison.Load() {
		// Poison before the buffer re-enters the pool: any slice still
		// aliasing c.IQ now reads NaN instead of silently-plausible
		// stale samples. Safe for pool reuse because GetIQ's contract
		// already requires consumers to overwrite every element before
		// reading any.
		nan := complex(math.NaN(), math.NaN())
		for i := range c.IQ {
			c.IQ[i] = nan
		}
	}
	dsp.PutIQ(c.IQ)
	c.IQ = nil
}

// Recycled reports whether Recycle has already run. Long-lived consumers
// that are handed a *Capture asynchronously (the streaming daemon's
// per-stream workers) check it before touching IQ, turning a silent
// use-after-recycle into an explicit failure.
func (c *Capture) Recycled() bool { return c.recycled.Load() }

// recyclePoison enables a debug-mode poison fill in Recycle: the
// sample buffer is overwritten with NaN before it returns to the pool,
// so a reader still aliasing a recycled capture's IQ computes garbage
// loudly (NaN propagates through every DSP stage) instead of reading
// stale but plausible samples. The package tests set it.
var recyclePoison atomic.Bool

// Acquire runs the input field samples through the receiver chain and
// returns the capture a host application would see. The capture's
// buffer comes from the process sample-buffer pool (dsp.GetIQ); the
// input is not modified.
//
// Acquire is NewFrontend, one Process over the whole input, and
// Capture. It panics on an invalid configuration; it is for callers
// whose configs are validated by construction. Callers handling user
// input build a Frontend and report NewFrontend's error.
func Acquire(iq []complex128, centerFreqHz float64, cfg Config, rng *xrand.Source) *Capture {
	f, err := NewFrontend(cfg, rng)
	if err != nil {
		panic(err)
	}
	out := dsp.GetIQ(len(iq))
	f.Process(out, iq)
	return f.Capture(out, centerFreqHz)
}

// Frontend is the receiver chain as a block processor. Process runs
// the analog front end (antenna gain, IQ imbalance, thermal noise) a
// piece at a time, in sample order, and adds each sample's power to
// the AGC's sum. Capture then applies the AGC gain, the DC offset and
// the quantizer, which need that sum over the whole capture. Any split
// of the input into pieces gives the same bits: the noise draws and the
// AGC sum both run in sample order.
type Frontend struct {
	cfg  Config
	gain float64
	rng  *xrand.Source
	sum  float64 // AGC sum of re²+im², in sample order
	n    int     // samples processed
}

// NewFrontend validates cfg and returns a receiver whose thermal noise
// draws from rng.
func NewFrontend(cfg Config, rng *xrand.Source) (*Frontend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Frontend{cfg: cfg, gain: math.Pow(10, cfg.Antenna.GainDB/20), rng: rng}, nil
}

// Process runs the next len(src) samples through the front end into
// dst, which must be as long as src and may alias it.
func (f *Frontend) Process(dst, src []complex128) {
	gain, imbalance, sigma := f.gain, f.cfg.IQImbalanceFrac, f.cfg.ThermalNoiseSigma
	agc, sum := f.cfg.AGCTargetRMS > 0, f.sum
	dst = dst[:len(src)]
	for i, v := range src {
		x := v * complex(gain, 0)
		if imbalance != 0 {
			// Gain mismatch on the I path: scales the real part only,
			// equivalent to leaking a conjugate image.
			x = complex(real(x)*(1+imbalance), imag(x))
		}
		if sigma > 0 {
			x += complex(f.rng.Normal(0, sigma), f.rng.Normal(0, sigma))
		}
		dst[i] = x
		if agc {
			sum += real(x)*real(x) + imag(x)*imag(x)
		}
	}
	f.sum = sum
	f.n += len(src)
}

// Capture finishes the acquisition of iq, which must hold exactly the
// samples Process produced, and returns it as a capture that owns iq.
//
// AGC: a single measurement over the capture (the RTL's gain is set
// once per tuning in practice), from the serial sum Process formed.
// The gain, the DC offset and the quantizer are element-wise and run
// as one pass on the worker pool.
func (f *Frontend) Capture(iq []complex128, centerFreqHz float64) *Capture {
	if len(iq) != f.n {
		panic(fmt.Sprintf("sdr: Capture of %d samples after Process of %d", len(iq), f.n))
	}
	cfg := &f.cfg
	// The gain multiplies only when the AGC measured a level:
	// multiplying by 1 instead would turn a −0 component into +0.
	var (
		agc   float64
		scale bool
	)
	if cfg.AGCTargetRMS > 0 {
		if rms := math.Sqrt(f.sum / math.Max(1, float64(len(iq)))); rms > 0 {
			agc, scale = cfg.AGCTargetRMS/rms, true
		}
	}
	cap := &Capture{SampleRate: cfg.SampleRate, CenterFreqHz: centerFreqHz}
	levels := float64(int(1) << (cfg.Bits - 1)) // e.g. 128 for 8-bit
	var clipped atomic.Int64
	dsp.Chunks(len(iq), func(lo, hi int) {
		var clips int64
		for i := lo; i < hi; i++ {
			v := iq[i]
			if scale {
				v *= complex(agc, 0)
			}
			if cfg.DCOffset != 0 {
				v += complex(cfg.DCOffset, 0)
			}
			re, cr := quantize(real(v), levels)
			im, ci := quantize(imag(v), levels)
			if cr || ci {
				clips++
			}
			iq[i] = complex(re, im)
		}
		clipped.Add(clips)
	})
	cap.Clipped = int(clipped.Load())
	cap.IQ = iq
	sdrCaptures.Inc()
	sdrSamples.Add(uint64(len(iq)))
	sdrClipped.Add(uint64(cap.Clipped))
	return cap
}

// quantize maps v in [-1,1) onto the ADC grid, clipping outside.
func quantize(v, levels float64) (q float64, clipped bool) {
	x := math.Round(v * levels)
	if x >= levels {
		x = levels - 1
		clipped = true
	}
	if x < -levels {
		x = -levels
		clipped = true
	}
	return x / levels, clipped
}
