// Package emchannel models the propagation path between the laptop's
// VRM and the attacker's antenna: near-field distance attenuation, wall
// penetration loss, co-located interference sources (the paper's NLoS
// setup has a printer in the transmitter's room and a refrigerator in
// the receiver's room), and additive receiver-referred noise.
package emchannel

import (
	"fmt"
	"math"

	"pmuleak/internal/dsp"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// Channel telemetry: propagations run and IQ samples produced. Both are
// functions of the experiment configuration alone, so they are
// deterministic across runs and -jobs settings.
var (
	chApplies = telemetry.NewCounter("emchannel.applies")
	chSamples = telemetry.NewCounter("emchannel.samples")
)

// InterfererKind selects the interference waveform.
type InterfererKind int

const (
	// CW is a continuous narrowband carrier (e.g. another switching
	// supply running at constant load).
	CW InterfererKind = iota
	// Pulsed is a carrier gated on/off periodically (motor controller,
	// compressor electronics).
	Pulsed
	// Broadband is wideband Gaussian noise bursts.
	Broadband
)

// Interferer is one environmental EM source, described in the receiver's
// baseband.
type Interferer struct {
	Kind      InterfererKind
	OffsetHz  float64 // baseband frequency offset of the carrier
	Amplitude float64 // field amplitude at the receiver
	// For Pulsed and Broadband: gate period and duty cycle.
	PeriodS float64
	Duty    float64
}

// Config describes one propagation path.
type Config struct {
	// DistanceM is the antenna-to-VRM distance in meters.
	DistanceM float64

	// RefDistanceM is the distance at which the emitter gain was
	// calibrated (path gain = 1). The paper's near-field measurements
	// use a 10 cm probe placement.
	RefDistanceM float64

	// NearFieldExponent is the amplitude roll-off exponent. Magnetic
	// near-field induction decays as 1/d^3; far-field would be 1/d.
	NearFieldExponent float64

	// WallLossDB is the penetration loss (power dB) of any wall in the
	// path. 0 for line of sight.
	WallLossDB float64

	// NoiseSigma is the standard deviation (per I/Q component) of the
	// additive Gaussian noise referred to the antenna output.
	NoiseSigma float64

	Interferers []Interferer
}

// DefaultConfig returns the near-field setup: a probe 10 cm from the
// laptop, no wall, a realistic office noise floor.
func DefaultConfig() Config {
	return Config{
		DistanceM:         0.10,
		RefDistanceM:      0.10,
		NearFieldExponent: 3,
		NoiseSigma:        0.004,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DistanceM <= 0 || c.RefDistanceM <= 0 {
		return fmt.Errorf("emchannel: distances must be positive")
	}
	if c.NearFieldExponent < 1 || c.NearFieldExponent > 4 {
		return fmt.Errorf("emchannel: NearFieldExponent %v out of range [1,4]", c.NearFieldExponent)
	}
	if c.WallLossDB < 0 {
		return fmt.Errorf("emchannel: negative WallLossDB")
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("emchannel: negative NoiseSigma")
	}
	for i, in := range c.Interferers {
		if in.Amplitude < 0 {
			return fmt.Errorf("emchannel: interferer %d has negative amplitude", i)
		}
		if in.Kind != CW && (in.PeriodS <= 0 || in.Duty < 0 || in.Duty > 1) {
			return fmt.Errorf("emchannel: interferer %d has bad gating (period %v duty %v)",
				i, in.PeriodS, in.Duty)
		}
	}
	return nil
}

// PathGain returns the amplitude gain of the path (distance roll-off
// plus wall loss). It is 1 at the reference distance with no wall.
func (c Config) PathGain() float64 {
	g := math.Pow(c.RefDistanceM/c.DistanceM, c.NearFieldExponent)
	// WallLossDB is a power loss; amplitude scales with its square root.
	g *= math.Pow(10, -c.WallLossDB/20)
	return g
}

// Apply propagates the IQ stream through the channel: scales by the path
// gain, then adds interference and noise. A fresh slice is returned; the
// input is not modified. The output buffer comes from the process
// sample-buffer pool (dsp.GetIQ); callers that are done with it can
// hand it back with dsp.PutIQ. sampleRate is needed to synthesize the
// interferers.
//
// Apply is NewPath and one Process over the whole stream. It panics on
// an invalid configuration; it is for callers whose configs are
// validated by construction. Callers handling user input build a Path
// and report NewPath's error.
func Apply(iq []complex128, sampleRate float64, cfg Config, rng *xrand.Source) []complex128 {
	p, err := NewPath(cfg, sampleRate, len(iq), rng)
	if err != nil {
		panic(err)
	}
	out := dsp.GetIQ(len(iq))
	p.Process(out, iq)
	return out
}

// Path is the channel as a block processor: it propagates a stream of
// n samples a piece at a time, in sample order, carrying its state from
// one piece to the next. Any split of the stream into pieces gives the
// same bits.
//
// The random draws are interferer-major: for each interferer with
// nonzero amplitude, in list order, one Uniform phase, then (for a
// broadband one) two Normals per gated-on sample of the whole stream.
// The noise's two Normals per sample come after all of them. So
// NewPath draws every phase and every broadband value up front, and
// Process draws only the noise.
type Path struct {
	gain  float64
	sigma float64
	ints  []interferer
	rng   *xrand.Source
	next  int // index of the next sample
	n     int
}

// interferer is one nonzero-amplitude interferer's state.
type interferer struct {
	kind      InterfererKind
	amp       float64
	phase     float64
	step      float64
	gate, on  int          // gate period and gated-on length, in samples; gate 0 for CW
	broadband []complex128 // pre-drawn values of the gated-on samples, in order
	drawn     int          // broadband values used
}

// NewPath validates cfg against sampleRate and returns the channel for
// a stream of n samples. It reports every configuration error,
// including the rate-dependent checks (sub-sample interferer gate
// periods) that Config.Validate alone cannot see. A broadband
// interferer pre-draws its values, 16 B per gated-on sample.
func NewPath(cfg Config, sampleRate float64, n int, rng *xrand.Source) (*Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("emchannel: sampleRate must be positive")
	}
	for i, in := range cfg.Interferers {
		// A gate period under one sample cannot be synthesized: the old
		// truncation turned it into an always-on interferer silently.
		if in.Kind != CW && in.PeriodS*sampleRate < 1 {
			return nil, fmt.Errorf("emchannel: interferer %d gate period %vs is under one sample at %v S/s",
				i, in.PeriodS, sampleRate)
		}
	}
	chApplies.Inc()
	p := &Path{gain: cfg.PathGain(), sigma: cfg.NoiseSigma, rng: rng, n: n}
	for _, in := range cfg.Interferers {
		if in.Amplitude == 0 {
			continue
		}
		it := interferer{
			kind:  in.Kind,
			amp:   in.Amplitude,
			phase: rng.Uniform(0, 2*math.Pi),
			step:  2 * math.Pi * in.OffsetHz / sampleRate,
		}
		if in.Kind != CW {
			// Round, don't truncate: a 0.9-sample period used to
			// truncate to a zero-length gate, which turned it into an
			// always-on interferer. Sub-sample periods are rejected
			// above, so rounding only corrects the half-sample bias.
			it.gate = int(math.Round(in.PeriodS * sampleRate))
			it.on = int(in.Duty * float64(it.gate))
		}
		if in.Kind == Broadband {
			it.broadband = make([]complex128, n/it.gate*it.on+min(n%it.gate, it.on))
			for j := range it.broadband {
				it.broadband[j] = complex(rng.Normal(0, in.Amplitude), rng.Normal(0, in.Amplitude))
			}
		}
		p.ints = append(p.ints, it)
	}
	return p, nil
}

// Process propagates the next len(src) samples of the stream into dst,
// which must be as long as src and may alias it. It panics past the
// stream's n samples.
func (p *Path) Process(dst, src []complex128) {
	if p.next+len(src) > p.n {
		panic(fmt.Sprintf("emchannel: Process past the path's %d samples", p.n))
	}
	dst = dst[:len(src)]
	chSamples.Add(uint64(len(src)))
	gain := complex(p.gain, 0)
	for i, v := range src {
		x := v * gain
		for j := range p.ints {
			in := &p.ints[j]
			if in.gate > 0 && (p.next+i)%in.gate >= in.on {
				continue
			}
			if in.kind == Broadband {
				x += in.broadband[in.drawn]
				in.drawn++
				continue
			}
			in.phase += in.step
			if in.phase > math.Pi {
				in.phase -= 2 * math.Pi
			} else if in.phase < -math.Pi {
				in.phase += 2 * math.Pi
			}
			s, c := math.Sincos(in.phase)
			x += complex(in.amp*c, in.amp*s)
		}
		if p.sigma > 0 {
			x += complex(p.rng.Normal(0, p.sigma), p.rng.Normal(0, p.sigma))
		}
		dst[i] = x
	}
	p.next += len(src)
}

// OfficePrinter returns the paper's Fig. 10 printer-style interferer: a
// pulsed switching supply a few hundred kHz off the band center.
func OfficePrinter(amplitude float64) Interferer {
	return Interferer{
		Kind:      Pulsed,
		OffsetHz:  -320e3,
		Amplitude: amplitude,
		PeriodS:   0.004,
		Duty:      0.6,
	}
}

// Refrigerator returns a compressor-electronics interferer: a slow
// pulsed carrier close to the fundamental.
func Refrigerator(amplitude float64) Interferer {
	return Interferer{
		Kind:      Pulsed,
		OffsetHz:  -460e3,
		Amplitude: amplitude,
		PeriodS:   0.02,
		Duty:      0.5,
	}
}

// OfficeBroadband returns a weak wideband noise source (cabling pickup,
// digital crosstalk).
func OfficeBroadband(amplitude float64) Interferer {
	return Interferer{
		Kind:      Broadband,
		Amplitude: amplitude,
		PeriodS:   0.001,
		Duty:      1,
	}
}
