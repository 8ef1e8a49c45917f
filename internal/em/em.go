// Package em synthesizes the electromagnetic emanations of the voltage
// regulator as a complex-baseband (IQ) sample stream, the way a
// software-defined radio tuned near the VRM switching frequency would
// see them.
//
// The physics being modelled (§II of the paper): each replenishment
// current burst radiates, and because bursts repeat at the switching
// frequency f0, the emission concentrates in spectral spikes at f0 and
// its integer harmonics, with square-wave-like 1/k harmonic weights. The
// spike amplitude follows the burst charge, so the processor's activity
// level amplitude-modulates every spike — the on-off keying the attack
// receives.
package em

import (
	"fmt"
	"math"
	"runtime"

	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// Config describes the synthesis: emitter physics plus the (virtual)
// receiver tuning that defines the baseband.
type Config struct {
	// SwitchingFreqHz is the VRM's fundamental emission frequency.
	SwitchingFreqHz float64

	// CenterFreqHz is the receiver's tuning frequency: rendered
	// components appear at offsets (k·f0 - fc) in the baseband.
	CenterFreqHz float64

	// SampleRate is the IQ sample rate (Hz).
	SampleRate float64

	// Harmonics is the number of harmonics of f0 to render (>= 1).
	// Harmonics falling outside the usable baseband are skipped.
	Harmonics int

	// EmitterGain converts charge-flow (A) at the VRM into received
	// field amplitude at the reference distance. Per-laptop constant.
	EmitterGain float64

	// PhaseNoiseSigma is the per-sample standard deviation (radians)
	// of the common random-walk phase noise of the switching clock.
	PhaseNoiseSigma float64

	// FreqDitherHz, when positive, spreads the switching clock: the
	// instantaneous fundamental wanders in a reflected random walk
	// within +/- FreqDitherHz of nominal. This models the
	// spread-spectrum VRM dithering the paper's §VI proposes as a
	// countermeasure (and that secure-VRM designs like random fast
	// voltage dithering implement).
	FreqDitherHz float64
	// FreqDitherRateHz controls how fast the wander moves (the corner
	// frequency of the random walk); zero with FreqDitherHz > 0
	// selects a 1 kHz default.
	FreqDitherRateHz float64

	// CarrierDriftHzPerS is a slow linear drift of the switching
	// frequency (thermal drift of the converter's RC oscillator). It
	// is what forces a receiver to re-acquire the spike over
	// multi-second captures.
	CarrierDriftHzPerS float64

	// EnvelopeSmoothPeriods controls how many switching periods of
	// smoothing the emission envelope gets; it models the finite
	// bandwidth of the resonant emission path.
	EnvelopeSmoothPeriods float64
}

// DefaultConfig returns a synthesis setup matching the paper's: 970 kHz
// VRM, tuned between the fundamental and first harmonic so both fit in a
// 2.4 MS/s capture.
func DefaultConfig() Config {
	return Config{
		SwitchingFreqHz:       970e3,
		CenterFreqHz:          1.5 * 970e3,
		SampleRate:            2.4e6,
		Harmonics:             2,
		EmitterGain:           1.0,
		PhaseNoiseSigma:       2e-4,
		EnvelopeSmoothPeriods: 2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SwitchingFreqHz <= 0 {
		return fmt.Errorf("em: SwitchingFreqHz must be positive")
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("em: SampleRate must be positive")
	}
	if c.Harmonics < 1 {
		return fmt.Errorf("em: need at least one harmonic")
	}
	if c.EmitterGain < 0 {
		return fmt.Errorf("em: negative EmitterGain")
	}
	if c.PhaseNoiseSigma < 0 {
		return fmt.Errorf("em: negative PhaseNoiseSigma")
	}
	if c.FreqDitherHz < 0 || c.FreqDitherRateHz < 0 {
		return fmt.Errorf("em: negative frequency dither")
	}
	if c.EnvelopeSmoothPeriods <= 0 {
		return fmt.Errorf("em: EnvelopeSmoothPeriods must be positive")
	}
	return nil
}

// HarmonicOffsets returns the baseband offsets (Hz) of the harmonics
// that fit inside the usable band (92% of Nyquist, keeping clear of the
// band edges), in harmonic order. Harmonics outside are omitted.
func (c Config) HarmonicOffsets() []float64 {
	usable := 0.46 * c.SampleRate
	var out []float64
	for k := 1; k <= c.Harmonics; k++ {
		off := float64(k)*c.SwitchingFreqHz - c.CenterFreqHz
		if math.Abs(off) <= usable {
			out = append(out, off)
		}
	}
	return out
}

// SampleCount returns the number of samples spanning the horizon.
func (c Config) SampleCount(horizon sim.Time) int {
	return int(horizon.Seconds() * c.SampleRate)
}

// renderBlock is how many envelope buckets the pulse walk gets ahead
// of the sample loop between hand-offs, and the longest piece the
// sample loop renders before it calls the stage.
const renderBlock = 1 << 14

// Stage processes a piece of Render's output in place. Render calls it
// on the render goroutine (Render's caller) once for each consecutive
// piece of out, in sample order, as soon as the piece is final; the
// pieces tile out, and none is longer than renderBlock samples.
type Stage func(piece []complex128)

// Render converts a VRM pulse train into an IQ baseband stream over
// [0, horizon), written to out, which must hold
// Config.SampleCount(horizon) samples. Render writes every sample, so
// out may come from dsp.GetIQ. When stage is not nil, Render calls it
// on each piece of out as soon as the piece is final.
//
// The train is never materialized: each pulse's charge goes straight
// into its envelope bucket as the train is walked, and the sample loop
// smooths and renders buckets once they are final. With more than one
// P the walk runs on its own goroutine, a block ahead of the sample
// loop and the stage; with one P it runs first, and the sample loop
// and the stage then follow a piece at a time. The walk has exited when
// Render returns, also when the stage panics. The walk draws only from
// the train's random source and the sample loop only from rng, so the
// output does not depend on the overlap.
//
// A bucket is final once the walk is a switching period (of
// cfg.SwitchingFreqHz) past it, which vrm.Train's walk order
// guarantees for a VRM switching at that frequency. Render panics if a
// pulse lands in a bucket already marked final, or if the train
// panics.
func Render(out []complex128, train vrm.Train, horizon sim.Time, cfg Config, rng *xrand.Source, stage Stage) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.SampleCount(horizon)
	if len(out) != n {
		panic(fmt.Sprintf("em: Render into %d samples, want %d", len(out), n))
	}
	if n == 0 {
		return
	}
	env := newEnvelope(horizon, n, cfg)
	syn := newSynth(cfg, rng)
	if runtime.GOMAXPROCS(0) > 1 {
		// One slot per hand-over (each moves the watermark a block, or
		// to the end), so the walk never blocks on the sample loop.
		env.ready = make(chan int, env.used/renderBlock+1)
		go func() {
			defer close(env.ready)
			defer func() { env.panicked = recover() }()
			train(env.add)
		}()
		// If the stage panics, wait for the walk to finish before the
		// panic leaves Render.
		defer func() {
			for range env.ready {
			}
		}()
		for final := range env.ready {
			syn.emit(out, env.rate, syn.renderable(final), stage)
		}
	} else {
		train(env.add)
	}
	if env.panicked != nil {
		panic(env.panicked)
	}
	if env.late {
		panic("em: pulse train is out of walk order for its switching frequency")
	}
	syn.emit(out, env.rate, n, stage)
}

// envelope is the emission envelope built from a pulse train as it is
// walked: the per-bucket charge flow of vrm.EnergyRate, trimmed or
// zero-padded to one bucket per output sample.
type envelope struct {
	rate      []float64
	dt        sim.Time // bucket width
	dtSeconds float64
	used      int // buckets that can take charge: min(⌈horizon/dt⌉, len(rate))
	// Watermark. No pulse of the train lands more than lag before one
	// emitted ahead of it, so buckets below final take no more charge.
	// The walk advances final in steps of renderBlock, once a pulse
	// reaches nextAt, and hands it to the sample loop on ready (nil
	// when the walk runs first).
	lag    sim.Time
	final  int
	nextAt sim.Time
	ready  chan int

	late     bool // a pulse landed below final
	panicked any  // the train's panic, re-raised by Render
}

func newEnvelope(horizon sim.Time, n int, cfg Config) *envelope {
	// The bucket width is the sample period rounded to whole ns: 417 ns
	// against 416.67 ns at 2.4 MS/s, 800 ppm long (80 ppm at 240 kS/s).
	// So the emission runs ahead of the sample clock by that much, and
	// the last ~0.08% of a 2.4 MS/s capture gets none (383 samples of
	// 0.2 s). Kept bit for bit: correcting it changes every report.
	dt := sim.FromSeconds(1 / cfg.SampleRate)
	if dt < 1 {
		dt = 1
	}
	e := &envelope{rate: make([]float64, n), dt: dt, dtSeconds: dt.Seconds(), used: n}
	if buckets := int((horizon + dt - 1) / dt); buckets < n {
		e.used = buckets
	}
	e.lag = sim.FromSeconds(1 / cfg.SwitchingFreqHz)
	e.nextAt = e.lag + sim.Time(renderBlock)*dt
	return e
}

// add accumulates one pulse into its bucket exactly as vrm.EnergyRate
// does: same index, same quotient, in train order.
func (e *envelope) add(p vrm.Pulse) {
	if p.At >= e.nextAt {
		e.advance(p.At)
	}
	idx := int(p.At / e.dt)
	switch {
	case idx < 0 || idx >= e.used:
	case idx < e.final:
		e.late = true
	default:
		e.rate[idx] += p.Charge / e.dtSeconds
	}
}

// advance marks final every bucket that lies wholly before at - lag.
func (e *envelope) advance(at sim.Time) {
	e.final = int((at - e.lag) / e.dt)
	if e.final >= e.used {
		e.final = e.used
		e.nextAt = math.MaxInt64
	} else {
		e.nextAt = e.lag + sim.Time(e.final+renderBlock)*e.dt
	}
	if e.ready != nil {
		e.ready <- e.final
	}
}

// oscillator renders one harmonic of the switching frequency.
type oscillator struct {
	phase float64 // current phase (radians)
	step  float64 // deterministic phase increment per sample
	kfrac float64 // harmonic number (phase noise scales with it)
	amp   float64 // relative amplitude (1/k falloff)
}

// synth is Render's sample loop: dsp.MovingAverage's running window
// over the envelope, then harmonic oscillators sharing a common
// phase-noise random walk. It renders in pieces as envelope buckets
// become final, carrying its state from one piece to the next.
type synth struct {
	cfg            Config
	rng            *xrand.Source
	oscs           []oscillator
	driftPerSample float64
	// Spread-spectrum dither: a reflected random walk of the
	// fundamental within +/- FreqDitherHz.
	wander, wanderStep float64
	// The smoothing window sums env[lo:hi]: width w, centred half
	// samples back.
	w, half, lo, hi int
	sum             float64
	next            int // next sample to render
}

func newSynth(cfg Config, rng *xrand.Source) *synth {
	s := &synth{cfg: cfg, rng: rng}
	// The emission path acts as a resonant filter: the envelope cannot
	// change faster than a few switching periods. At low sample rates a
	// floor of a few samples also removes the artificial per-sample
	// pulse-count aliasing that would otherwise spread the carrier.
	s.w = int(cfg.EnvelopeSmoothPeriods * cfg.SampleRate / cfg.SwitchingFreqHz)
	if s.w < 4 {
		s.w = 4
	}
	s.half = s.w / 2

	usable := 0.46 * cfg.SampleRate
	for k := 1; k <= cfg.Harmonics; k++ {
		off := float64(k)*cfg.SwitchingFreqHz - cfg.CenterFreqHz
		if math.Abs(off) > usable {
			continue
		}
		s.oscs = append(s.oscs, oscillator{
			phase: rng.Uniform(0, 2*math.Pi),
			step:  2 * math.Pi * off / cfg.SampleRate,
			kfrac: float64(k),
			amp:   1 / float64(k),
		})
	}

	s.driftPerSample = cfg.CarrierDriftHzPerS / cfg.SampleRate

	if cfg.FreqDitherHz > 0 {
		rate := cfg.FreqDitherRateHz
		if rate <= 0 {
			rate = 1000
		}
		// Per-sample step sized so the walk crosses the full range at
		// roughly the requested rate.
		s.wanderStep = cfg.FreqDitherHz * math.Sqrt(rate/cfg.SampleRate)
		s.wander = rng.Uniform(-cfg.FreqDitherHz, cfg.FreqDitherHz)
	}
	return s
}

// renderable returns how many samples can be rendered once the
// envelope buckets below final are final: a sample's smoothing window
// reaches w-half-1 buckets past it.
func (s *synth) renderable(final int) int {
	return max(final+s.half-s.w+1, 0)
}

// emit renders samples up to (not including) upTo in pieces of at
// most renderBlock, and stages each piece once it is rendered.
func (s *synth) emit(out []complex128, env []float64, upTo int, stage Stage) {
	for s.next < upTo {
		lo := s.next
		s.render(out, env, min(lo+renderBlock, upTo))
		if stage != nil {
			stage(out[lo:s.next])
		}
	}
}

// render renders samples up to (not including) upTo.
func (s *synth) render(out []complex128, env []float64, upTo int) {
	cfg := &s.cfg
	n := len(out)
	oscs := s.oscs
	w, half, lo, hi, sum := s.w, s.half, s.lo, s.hi, s.sum
	for i := s.next; i < upTo; i++ {
		// One step of dsp.MovingAverage, adds before subtracts.
		wantLo, wantHi := i-half, i-half+w
		if wantLo < 0 {
			wantLo = 0
		}
		if wantHi > n {
			wantHi = n
		}
		for hi < wantHi {
			sum += env[hi]
			hi++
		}
		for lo < wantLo {
			sum -= env[lo]
			lo++
		}
		smoothed := sum / float64(w)

		var dn float64
		if cfg.PhaseNoiseSigma > 0 {
			dn = s.rng.Normal(0, cfg.PhaseNoiseSigma)
		}
		if s.wanderStep > 0 {
			s.wander += s.rng.Normal(0, s.wanderStep)
			if s.wander > cfg.FreqDitherHz {
				s.wander = 2*cfg.FreqDitherHz - s.wander
			} else if s.wander < -cfg.FreqDitherHz {
				s.wander = -2*cfg.FreqDitherHz - s.wander
			}
			dn += 2 * math.Pi * s.wander / cfg.SampleRate
		}
		if s.driftPerSample != 0 {
			// Linear frequency drift: the accumulated offset after i
			// samples is drift * i / fs Hz.
			dn += 2 * math.Pi * s.driftPerSample * float64(i) / cfg.SampleRate
		}
		a := cfg.EmitterGain * smoothed
		var acc complex128
		for j := range oscs {
			o := &oscs[j]
			o.phase += o.step + o.kfrac*dn
			// Keep the accumulated phase small for float accuracy.
			if o.phase > math.Pi {
				o.phase -= 2 * math.Pi
			} else if o.phase < -math.Pi {
				o.phase += 2 * math.Pi
			}
			sn, c := math.Sincos(o.phase)
			acc += complex(a*o.amp*c, a*o.amp*sn)
		}
		out[i] = acc
	}
	s.next = max(s.next, upTo)
	s.lo, s.hi, s.sum = lo, hi, sum
}

// RMS returns the root-mean-square magnitude of an IQ stream.
func RMS(iq []complex128) float64 {
	if len(iq) == 0 {
		return 0
	}
	var sum float64
	for _, v := range iq {
		re, im := real(v), imag(v)
		sum += re*re + im*im
	}
	return math.Sqrt(sum / float64(len(iq)))
}
