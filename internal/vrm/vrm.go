// Package vrm models the buck-converter voltage regulator module that
// powers the processor, with the one behaviour that makes the paper's
// side channel exist: phase shedding. At full load the converter fires a
// large replenishment pulse every switching period; at light load it
// skips most periods and fires small pulses, so both the amplitude and
// the density of its current bursts — and therefore of its EM
// emanations — collapse.
package vrm

import (
	"fmt"

	"pmuleak/internal/power"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// Config describes one VRM instance.
type Config struct {
	// SwitchingFreqHz is the converter's nominal switching frequency
	// (1/T). Laptop VRMs sit between 250 kHz and 1 MHz.
	SwitchingFreqHz float64

	// PeriodJitterFrac is the fractional cycle-to-cycle jitter of the
	// switching clock (e.g. 0.002 for 0.2%). It broadens the spectral
	// spike slightly, as on real hardware.
	PeriodJitterFrac float64

	// InputVoltage is the DC input (battery / adapter), 10-20 V.
	InputVoltage float64

	// ShedThresholdA is the load current below which the converter
	// starts shedding (skipping) switching periods.
	ShedThresholdA float64

	// MinPulseCharge is the smallest charge packet (A·s) the converter
	// delivers; in shedding mode it waits until the load has drained
	// this much before firing.
	MinPulseCharge float64

	// AmplitudeNoiseFrac is the fractional random variation of each
	// pulse's energy (component tolerances, ripple).
	AmplitudeNoiseFrac float64

	// Phases is the number of interleaved converter phases (>= 1).
	// Multi-phase converters fire their phases T/N apart, splitting
	// the load current; at light load they shed down to one phase
	// (the multi-phase "phase shedding" of Su & Liu and Ahn et al.,
	// distinct from the pulse skipping modelled above).
	Phases int

	// PhaseImbalanceFrac is the per-phase current-share mismatch; a
	// perfectly balanced converter cancels its fundamental at the
	// output, so the imbalance is what keeps the f0 emission alive.
	PhaseImbalanceFrac float64
}

// DefaultConfig returns a 970 kHz single-phase buck typical of the
// laptops in Table I.
func DefaultConfig() Config {
	return Config{
		SwitchingFreqHz:    970e3,
		PeriodJitterFrac:   0.002,
		InputVoltage:       12,
		ShedThresholdA:     2.0,
		MinPulseCharge:     2.0 / 970e3, // one full-load-ish packet
		AmplitudeNoiseFrac: 0.05,
		Phases:             1,
		PhaseImbalanceFrac: 0.1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SwitchingFreqHz <= 0 {
		return fmt.Errorf("vrm: SwitchingFreqHz must be positive")
	}
	if c.PeriodJitterFrac < 0 || c.PeriodJitterFrac > 0.5 {
		return fmt.Errorf("vrm: PeriodJitterFrac %v out of range", c.PeriodJitterFrac)
	}
	if c.InputVoltage <= 0 {
		return fmt.Errorf("vrm: InputVoltage must be positive")
	}
	if c.ShedThresholdA < 0 {
		return fmt.Errorf("vrm: negative ShedThresholdA")
	}
	if c.MinPulseCharge <= 0 {
		return fmt.Errorf("vrm: MinPulseCharge must be positive")
	}
	if c.Phases < 0 || c.Phases > 8 {
		return fmt.Errorf("vrm: Phases %d out of range [0,8]", c.Phases)
	}
	if c.PhaseImbalanceFrac < 0 || c.PhaseImbalanceFrac > 1 {
		return fmt.Errorf("vrm: PhaseImbalanceFrac %v out of range", c.PhaseImbalanceFrac)
	}
	return nil
}

// Period returns the nominal switching period.
func (c Config) Period() sim.Time {
	return sim.FromSeconds(1 / c.SwitchingFreqHz)
}

// Pulse is one replenishment burst of the converter.
type Pulse struct {
	At sim.Time
	// Charge is the charge (A·s) transferred in the burst. EM field
	// strength scales with the burst current, i.e. with Charge for a
	// fixed burst shape.
	Charge float64
	// Phase identifies which converter phase fired (0 for single-phase
	// converters and for shed operation).
	Phase int
}

// Train is a switching pulse train in walk order: calling it walks the
// load trace and calls emit once per pulse. A train draws from its
// random source as it goes, so it can be walked only once.
//
// Walk order is time order except inside one switching period. The
// walk reaches each period at its base time and fires that period's
// pulses at or after it: a multi-phase converter fires its phases T/N
// apart, and a jittered next period may start before the last phase of
// this one. So no pulse lands a full Period before a pulse emitted
// ahead of it. That is the bound a consumer that streams the train
// needs to know when everything before some time has arrived.
type Train func(emit func(Pulse))

// NewTrain validates cfg and returns the converter's switching pulse
// train over [0, horizon). The load trace must be contiguous and
// sorted, as produced by power.Trace. Validation happens here, on the
// caller's goroutine, so walking the train cannot panic.
//
// Above the shedding threshold the converter fires every period,
// transferring the charge the load drained during that period (I·T).
// Below it, it accumulates the drain and fires only when a minimum
// packet is due, so light load produces sparse, small pulses.
func NewTrain(loadTrace []power.Span, horizon sim.Time, cfg Config, rng *xrand.Source) Train {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return func(emit func(Pulse)) { walk(loadTrace, horizon, cfg, rng, emit) }
}

func walk(loadTrace []power.Span, horizon sim.Time, cfg Config, rng *xrand.Source, emit func(Pulse)) {
	period := cfg.Period()
	// Hoisted by hand: Go does not move the float division out of the
	// per-period loop.
	periodS := period.Seconds()
	var pending float64 // accumulated charge deficit while shedding
	spanIdx := 0
	currentAt := func(t sim.Time) float64 {
		for spanIdx < len(loadTrace) && loadTrace[spanIdx].End <= t {
			spanIdx++
		}
		if spanIdx < len(loadTrace) && t >= loadTrace[spanIdx].Start {
			return loadTrace[spanIdx].Current
		}
		return 0
	}
	for t := sim.Time(0); t < horizon; {
		i := currentAt(t)
		drained := i * periodS
		if i >= cfg.ShedThresholdA {
			// Continuous-conduction mode: pulse every period. Any
			// deficit accumulated during shedding is made up now.
			charge := drained + pending
			pending = 0
			charge *= rng.Jitter(1, cfg.AmplitudeNoiseFrac)
			if phases := cfg.Phases; phases > 1 {
				// Interleave: each phase fires T/N later with its
				// share of the charge, imbalanced by the per-phase
				// mismatch.
				sub := period / sim.Time(phases)
				for ph := 0; ph < phases; ph++ {
					share := charge / float64(phases)
					share *= 1 + cfg.PhaseImbalanceFrac*(float64(ph)/float64(phases-1)-0.5)
					emit(Pulse{
						At:     t + sim.Time(ph)*sub,
						Charge: share,
						Phase:  ph,
					})
				}
			} else {
				emit(Pulse{At: t, Charge: charge})
			}
		} else {
			pending += drained
			if pending >= cfg.MinPulseCharge {
				charge := pending * rng.Jitter(1, cfg.AmplitudeNoiseFrac)
				emit(Pulse{At: t, Charge: charge})
				pending = 0
			}
		}
		step := period
		if cfg.PeriodJitterFrac > 0 {
			step = sim.Time(rng.Jitter(float64(period), cfg.PeriodJitterFrac))
			if step < 1 {
				step = 1
			}
		}
		t += step
	}
}

// Collect walks a train and returns its pulses in walk order.
func Collect(train Train) []Pulse {
	var out []Pulse
	train(func(p Pulse) { out = append(out, p) })
	return out
}

// Pulses returns the switching pulse train of NewTrain as a slice. The
// EM renderers consume the train as it is walked; the slice form serves
// tests and the materialized reference the streamed path is measured
// against.
func Pulses(loadTrace []power.Span, horizon sim.Time, cfg Config, rng *xrand.Source) []Pulse {
	return Collect(NewTrain(loadTrace, horizon, cfg, rng))
}

// MeanPulseRate returns the average pulse rate (Hz) of a train over the
// given horizon.
func MeanPulseRate(pulses []Pulse, horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(len(pulses)) / horizon.Seconds()
}

// TotalCharge sums the charge of all pulses.
func TotalCharge(pulses []Pulse) float64 {
	var sum float64
	for _, p := range pulses {
		sum += p.Charge
	}
	return sum
}

// EnergyRate converts a pulse train into a per-bucket charge-flow
// series: the charge delivered in each bucket of width dt, divided by
// dt. It is the emission envelope em.Render accumulates bucket by
// bucket as the train is walked, kept in slice form as that path's
// test oracle.
func EnergyRate(pulses []Pulse, horizon, dt sim.Time) []float64 {
	if dt <= 0 {
		panic("vrm: EnergyRate dt must be positive")
	}
	n := int((horizon + dt - 1) / dt)
	out := make([]float64, n)
	for _, p := range pulses {
		idx := int(p.At / dt)
		if idx >= 0 && idx < n {
			out[idx] += p.Charge / dt.Seconds()
		}
	}
	return out
}
