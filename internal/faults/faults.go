// Package faults is a deterministic fault injector for the acquisition
// chain. The simulated receiver path (emchannel.Path → sdr.Frontend)
// models steady-state artifacts — noise, AGC, quantization, interferers
// — but a real RTL-SDR-v3 capture also suffers transient failures: USB
// overruns that drop contiguous sample blocks, a sample clock that is
// off by tens of ppm and drifts with temperature, AGC re-gain steps
// mid-capture, bursts that rail the ADC, and captures that end early.
// This package synthesizes those failure modes on top of a finished
// sdr.Capture so the demodulator's robustness can be measured (and the
// degradation curves of the `robustness` experiment plotted) without
// giving up reproducibility.
//
// Determinism contract: every fault class draws from its own
// xrand stream derived from the injector seed, so (a) a fault schedule
// is a pure function of (Config, seed, capture length), identical at
// every -jobs setting, and (b) enabling one fault class never perturbs
// the schedule of another. With the zero Config the injector is a
// strict no-op — the capture is untouched and no telemetry is recorded
// — which is what keeps golden outputs byte-identical when faults are
// disabled.
package faults

import (
	"fmt"
	"math"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sdr"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// Injector telemetry. Every injected event increments a counter, so a
// sweep's -metrics snapshot carries the fault totals next to the
// channel metrics they explain. All faults.* series are sums over
// per-cell deterministic schedules, hence scheduling-independent.
var (
	fApplies      = telemetry.NewCounter("faults.applies")
	fDrops        = telemetry.NewCounter("faults.drops")
	fDroppedSamp  = telemetry.NewCounter("faults.dropped_samples")
	fDriftPPM     = telemetry.NewCounter("faults.drift_ppm")
	fGainSteps    = telemetry.NewCounter("faults.gain_steps")
	fSaturations  = telemetry.NewCounter("faults.saturations")
	fSatSamples   = telemetry.NewCounter("faults.saturated_samples")
	fTruncations  = telemetry.NewCounter("faults.truncations")
	fTruncSamples = telemetry.NewCounter("faults.truncated_samples")
)

// Per-fault-class seed offsets: each class forks its stream from
// seed+offset so enabling or re-ordering classes never perturbs the
// schedules of the others.
const (
	seedDrops = iota + 1
	seedClock
	seedGain
	seedSaturation
	seedTruncation
)

// Config describes the fault intensity. The zero value disables every
// class (Enabled() == false) and Apply becomes a no-op.
type Config struct {
	// DropRatePerS is the expected number of USB-overrun events per
	// second of capture. Overruns arrive as a Poisson process
	// (exponential inter-arrival times) and each deletes a contiguous
	// sample block — the samples are gone, not zeroed, exactly as
	// librtlsdr delivers the stream after an overrun.
	DropRatePerS float64
	// DropMinLen and DropMaxLen bound the deleted block length in
	// samples (uniform). DropMaxLen == 0 defaults both to
	// [512, 4096] — roughly 0.2–1.7 ms at 2.4 MS/s, the order of one
	// USB transfer.
	DropMinLen, DropMaxLen int

	// ClockPPM is the receiver sample-clock frequency error in parts
	// per million: positive means the receiver's clock runs slow, so
	// symbol periods stretch as seen by the decoder. RTL-SDR crystals
	// are specified around ±20 ppm.
	ClockPPM float64
	// DriftPPMPerS adds a slow linear drift to the clock error
	// (thermal ramp): the effective error at capture time t is
	// ClockPPM + t*DriftPPMPerS, so symbol periods walk during the
	// capture.
	DriftPPMPerS float64

	// GainStepRatePerS is the expected number of AGC re-gain events
	// per second. Each multiplies the remainder of the capture by a
	// step drawn uniformly in ±GainStepMaxDB (amplitude dB).
	GainStepRatePerS float64
	// GainStepMaxDB bounds the per-event gain step. Zero with a
	// nonzero rate defaults to 6 dB.
	GainStepMaxDB float64

	// SaturationRatePerS is the expected number of burst-saturation
	// events per second (a nearby impulse railing the ADC). Each
	// clamps SaturationLen samples to the converter rails.
	SaturationRatePerS float64
	// SaturationLen is the burst length in samples; zero with a
	// nonzero rate defaults to 256.
	SaturationLen int

	// TruncateProb is the probability the capture ends early (host
	// stopped streaming). When it fires, the capture is cut to a
	// uniform fraction in [TruncateMinFrac, 1) of its length.
	TruncateProb float64
	// TruncateMinFrac is the minimum fraction kept; zero with a
	// nonzero TruncateProb defaults to 0.5.
	TruncateMinFrac float64
}

// Enabled reports whether any fault class is active. The zero Config
// reports false and Apply is then a strict no-op.
func (c Config) Enabled() bool {
	return c.DropRatePerS > 0 || c.ClockPPM != 0 || c.DriftPPMPerS != 0 ||
		c.GainStepRatePerS > 0 || c.SaturationRatePerS > 0 || c.TruncateProb > 0
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DropRatePerS < 0 {
		return fmt.Errorf("faults: negative DropRatePerS")
	}
	if c.DropMinLen < 0 || c.DropMaxLen < 0 || c.DropMinLen > c.DropMaxLen {
		return fmt.Errorf("faults: bad drop length bounds [%d,%d]", c.DropMinLen, c.DropMaxLen)
	}
	if math.Abs(c.ClockPPM) > 1000 {
		return fmt.Errorf("faults: ClockPPM %v out of range [-1000,1000]", c.ClockPPM)
	}
	if math.Abs(c.DriftPPMPerS) > 1000 {
		return fmt.Errorf("faults: DriftPPMPerS %v out of range [-1000,1000]", c.DriftPPMPerS)
	}
	if c.GainStepRatePerS < 0 {
		return fmt.Errorf("faults: negative GainStepRatePerS")
	}
	if c.GainStepMaxDB < 0 || c.GainStepMaxDB > 40 {
		return fmt.Errorf("faults: GainStepMaxDB %v out of range [0,40]", c.GainStepMaxDB)
	}
	if c.SaturationRatePerS < 0 {
		return fmt.Errorf("faults: negative SaturationRatePerS")
	}
	if c.SaturationLen < 0 {
		return fmt.Errorf("faults: negative SaturationLen")
	}
	if c.TruncateProb < 0 || c.TruncateProb > 1 {
		return fmt.Errorf("faults: TruncateProb %v out of range [0,1]", c.TruncateProb)
	}
	if c.TruncateMinFrac < 0 || c.TruncateMinFrac >= 1 {
		return fmt.Errorf("faults: TruncateMinFrac %v out of range [0,1)", c.TruncateMinFrac)
	}
	return nil
}

// Report is the realized fault schedule of one Apply: what was actually
// injected, for the experiment reports and the degradation curves.
type Report struct {
	// InSamples and OutSamples are the capture length before and after
	// injection.
	InSamples, OutSamples int
	// Drops and DroppedSamples count the overrun events and the
	// samples they deleted.
	Drops, DroppedSamples int
	// MaxDriftPPM is the largest absolute clock error applied during
	// the capture (|ClockPPM| at the start or end of the drift ramp).
	MaxDriftPPM float64
	// GainSteps counts AGC re-gain events; NetGainDB is their sum.
	GainSteps int
	NetGainDB float64
	// Saturations and SaturatedSamples count rail events.
	Saturations, SaturatedSamples int
	// Truncated reports early capture end; TruncatedSamples how many
	// samples it removed.
	Truncated        bool
	TruncatedSamples int
}

// Injector applies a deterministic fault schedule to captures. One
// Injector serves one experiment cell; it is not safe for concurrent
// use (each cell builds its own from its cell seed).
type Injector struct {
	cfg  Config
	seed int64
}

// New returns an injector for the given intensity, with every fault
// stream derived from seed.
func New(cfg Config, seed int64) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, seed: seed}, nil
}

// MustNew is New for pre-validated configs; it panics on an invalid one.
func MustNew(cfg Config, seed int64) *Injector {
	inj, err := New(cfg, seed)
	if err != nil {
		panic(err)
	}
	return inj
}

// Apply injects the configured faults into the capture in a fixed
// physical order — clock error (the ADC timebase), gain steps and
// saturation (the analog front end), block drops (the USB transport),
// truncation (the host) — and returns the realized schedule. The
// capture's IQ buffer is modified in place or replaced (the old buffer
// is returned to the sample pool when replaced). With a zero Config the
// capture is untouched and nothing is recorded.
func (inj *Injector) Apply(cap *sdr.Capture) Report {
	rep := Report{InSamples: len(cap.IQ), OutSamples: len(cap.IQ)}
	if !inj.cfg.Enabled() || len(cap.IQ) == 0 {
		return rep
	}
	fApplies.Inc()
	inj.applyClock(cap, &rep)
	inj.applyGainSteps(cap, &rep)
	inj.applySaturation(cap, &rep)
	inj.applyDrops(cap, &rep)
	inj.applyTruncation(cap, &rep)
	rep.OutSamples = len(cap.IQ)
	return rep
}

// applyClock resamples the capture through the erroneous receiver
// timebase: output sample k reads the input at a position advancing by
// 1 + ppm(t)*1e-6 per sample, with ppm(t) = ClockPPM + t*DriftPPMPerS.
// Linear interpolation is plenty below ~100 ppm (the inter-sample error
// is second order), and the resampler is what makes symbol periods walk
// instead of merely shifting.
func (inj *Injector) applyClock(cap *sdr.Capture, rep *Report) {
	c := inj.cfg
	if c.ClockPPM == 0 && c.DriftPPMPerS == 0 {
		return
	}
	n := len(cap.IQ)
	dur := float64(n) / cap.SampleRate
	endPPM := c.ClockPPM + dur*c.DriftPPMPerS
	rep.MaxDriftPPM = math.Max(math.Abs(c.ClockPPM), math.Abs(endPPM))
	fDriftPPM.Add(uint64(math.Round(rep.MaxDriftPPM)))

	out := dsp.GetIQ(n)
	pos := 0.0
	written := 0
	for k := 0; k < n; k++ {
		i := int(pos)
		if i >= n-1 {
			break
		}
		frac := pos - float64(i)
		out[k] = cap.IQ[i] + complex(frac, 0)*(cap.IQ[i+1]-cap.IQ[i])
		written++
		t := float64(k) / cap.SampleRate
		pos += 1 + (c.ClockPPM+t*c.DriftPPMPerS)*1e-6
	}
	old := cap.IQ
	cap.IQ = out[:written]
	dsp.PutIQ(old)
}

// poissonEvents draws event start positions (sample indices) from a
// Poisson process with the given rate, using the class's own stream.
func poissonEvents(rng *xrand.Source, ratePerS, sampleRate float64, n int) []int {
	var events []int
	pos := 0.0
	for {
		pos += rng.Exp(1/ratePerS) * sampleRate
		if int(pos) >= n {
			return events
		}
		events = append(events, int(pos))
	}
}

// applyGainSteps multiplies everything after each re-gain event by the
// event's step factor (steps compound, like a real AGC walking its gain
// word).
func (inj *Injector) applyGainSteps(cap *sdr.Capture, rep *Report) {
	c := inj.cfg
	if c.GainStepRatePerS <= 0 {
		return
	}
	maxDB := c.GainStepMaxDB
	if maxDB == 0 {
		maxDB = 6
	}
	rng := xrand.New(inj.seed + seedGain)
	events := poissonEvents(rng, c.GainStepRatePerS, cap.SampleRate, len(cap.IQ))
	gain := 1.0
	for e, start := range events {
		stepDB := rng.Uniform(-maxDB, maxDB)
		rep.GainSteps++
		rep.NetGainDB += stepDB
		fGainSteps.Inc()
		gain *= math.Pow(10, stepDB/20)
		end := len(cap.IQ)
		if e+1 < len(events) {
			end = events[e+1]
		}
		for i := start; i < end; i++ {
			cap.IQ[i] *= complex(gain, 0)
		}
	}
}

// applySaturation rails the ADC for each burst: both components clamp
// to ±1 (full scale), destroying the amplitude information the decoder
// thresholds on.
func (inj *Injector) applySaturation(cap *sdr.Capture, rep *Report) {
	c := inj.cfg
	if c.SaturationRatePerS <= 0 {
		return
	}
	burstLen := c.SaturationLen
	if burstLen == 0 {
		burstLen = 256
	}
	rng := xrand.New(inj.seed + seedSaturation)
	for _, start := range poissonEvents(rng, c.SaturationRatePerS, cap.SampleRate, len(cap.IQ)) {
		end := start + burstLen
		if end > len(cap.IQ) {
			end = len(cap.IQ)
		}
		rep.Saturations++
		fSaturations.Inc()
		for i := start; i < end; i++ {
			cap.IQ[i] = complex(rail(real(cap.IQ[i])), rail(imag(cap.IQ[i])))
			rep.SaturatedSamples++
		}
		fSatSamples.Add(uint64(end - start))
		cap.Clipped += end - start
	}
}

// rail returns the full-scale value with v's sign (zero rails high, as
// a pinned ADC input does).
func rail(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// applyDrops deletes a contiguous block per overrun event. Blocks are
// removed back to front so earlier event positions stay valid, and the
// stream simply closes up — the receiver sees a shorter capture with
// phase discontinuities, not zeros.
func (inj *Injector) applyDrops(cap *sdr.Capture, rep *Report) {
	c := inj.cfg
	if c.DropRatePerS <= 0 {
		return
	}
	minLen, maxLen := c.DropMinLen, c.DropMaxLen
	if maxLen == 0 {
		minLen, maxLen = 512, 4096
	}
	if minLen < 1 {
		minLen = 1
	}
	rng := xrand.New(inj.seed + seedDrops)
	events := poissonEvents(rng, c.DropRatePerS, cap.SampleRate, len(cap.IQ))
	type block struct{ start, length int }
	blocks := make([]block, 0, len(events))
	for _, start := range events {
		length := minLen
		if maxLen > minLen {
			length += rng.Intn(maxLen - minLen + 1)
		}
		blocks = append(blocks, block{start, length})
	}
	for b := len(blocks) - 1; b >= 0; b-- {
		start, length := blocks[b].start, blocks[b].length
		if start >= len(cap.IQ) {
			continue
		}
		if start+length > len(cap.IQ) {
			length = len(cap.IQ) - start
		}
		copy(cap.IQ[start:], cap.IQ[start+length:])
		cap.IQ = cap.IQ[:len(cap.IQ)-length]
		rep.Drops++
		rep.DroppedSamples += length
		fDrops.Inc()
		fDroppedSamp.Add(uint64(length))
	}
}

// applyTruncation cuts the capture tail when the truncation event
// fires.
func (inj *Injector) applyTruncation(cap *sdr.Capture, rep *Report) {
	c := inj.cfg
	if c.TruncateProb <= 0 {
		return
	}
	rng := xrand.New(inj.seed + seedTruncation)
	if !rng.Bool(c.TruncateProb) {
		return
	}
	minFrac := c.TruncateMinFrac
	if minFrac == 0 {
		minFrac = 0.5
	}
	keep := int(rng.Uniform(minFrac, 1) * float64(len(cap.IQ)))
	if keep >= len(cap.IQ) {
		return
	}
	rep.Truncated = true
	rep.TruncatedSamples = len(cap.IQ) - keep
	fTruncations.Inc()
	fTruncSamples.Add(uint64(rep.TruncatedSamples))
	cap.IQ = cap.IQ[:keep]
}
