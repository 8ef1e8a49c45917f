// Package laptop assembles the per-device models into complete target
// systems matching Table I of the paper: six laptops from five vendors,
// three OS families, and six processor generations. A Profile carries
// everything that differs between devices — VRM switching frequency,
// emission strength, OS timing behaviour, background activity — and a
// System wires the kernel, PMU, VRM, and EM synthesizer together.
package laptop

import (
	"fmt"
	"strings"

	"pmuleak/internal/em"
	"pmuleak/internal/kernel"
	"pmuleak/internal/power"
	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// Profile is a complete device description.
type Profile struct {
	Model string
	Arch  string // Intel micro-architecture generation

	Kernel kernel.Config
	Power  power.Config
	VRM    vrm.Config

	// EmitterGain scales the VRM's charge flow into received field
	// amplitude at the reference distance; it differs across board
	// layouts.
	EmitterGain float64

	// PhaseNoiseSigma is the VRM clock's phase-noise level.
	PhaseNoiseSigma float64

	// CarrierDriftHzPerS is the slow thermal drift of the switching
	// frequency; material over multi-second keylogging captures.
	CarrierDriftHzPerS float64

	// VRMDitherHz, when positive, enables spread-spectrum dithering of
	// the VRM switching clock — the §VI "randomness in the operation
	// of the PMU" countermeasure. Stock laptops ship with zero.
	VRMDitherHz float64

	// DVFSWindow, when positive, switches the PMU to the demand-based
	// governor of §II (Speed-Shift style): active periods run at the
	// P-state selected by the previous window's utilization, so the
	// emission amplitude becomes a staircase that leaks utilization.
	// Zero keeps the simple binary governor.
	DVFSWindow sim.Time

	// DefaultSleepPeriod is the SLEEP_PERIOD a covert-channel
	// transmitter would use on this machine (the paper: 100 µs on
	// UNIX-family systems, the Sleep() floor on Windows).
	DefaultSleepPeriod sim.Time
}

// OS returns the profile's OS family.
func (p Profile) OS() kernel.OSKind { return p.Kernel.OS }

// String identifies the profile.
func (p Profile) String() string {
	return fmt.Sprintf("%s (%s, %s)", p.Model, p.OS(), p.Arch)
}

// The six Table I laptops. Parameters are calibrated so the simulated
// covert channel lands in the paper's reported performance bands; the
// per-device contrasts (UNIX vs Windows bit rates, MacBook BER) follow
// from the OS timing models and emission strengths.
func dellPrecision7290() Profile {
	k := kernel.DefaultConfig(kernel.Windows)
	return Profile{
		Model:              "Dell Precision 7290",
		Arch:               "Kaby Lake",
		Kernel:             k,
		Power:              power.DefaultConfig(),
		VRM:                vrmAt(940e3),
		EmitterGain:        0.88,
		PhaseNoiseSigma:    2e-4,
		CarrierDriftHzPerS: 25,
		DefaultSleepPeriod: 500 * sim.Microsecond,
	}
}

func macBookPro2015() Profile {
	k := kernel.DefaultConfig(kernel.MacOS)
	// The MacBooks reach the highest bit rates but with more wakeup
	// noise (busier default OS), hence the paper's higher BER.
	k.WakeupJitterSigma = 14 * sim.Microsecond
	k.InterruptRate = 260
	return Profile{
		Model:              "MacBookPro-2015",
		Arch:               "Broadwell",
		Kernel:             k,
		Power:              power.DefaultConfig(),
		VRM:                vrmAt(1.02e6),
		EmitterGain:        0.64,
		PhaseNoiseSigma:    3e-4,
		CarrierDriftHzPerS: 40,
		DefaultSleepPeriod: 100 * sim.Microsecond,
	}
}

func dellInspiron15() Profile {
	k := kernel.DefaultConfig(kernel.Linux)
	return Profile{
		Model:              "Dell Inspiron 15-3537",
		Arch:               "Haswell",
		Kernel:             k,
		Power:              power.DefaultConfig(),
		VRM:                vrmAt(970e3), // the paper's Fig. 2 device
		EmitterGain:        0.80,
		PhaseNoiseSigma:    2e-4,
		CarrierDriftHzPerS: 30,
		DefaultSleepPeriod: 100 * sim.Microsecond,
	}
}

func macBookPro2018() Profile {
	k := kernel.DefaultConfig(kernel.MacOS)
	k.WakeupJitterSigma = 13 * sim.Microsecond
	k.InterruptRate = 240
	return Profile{
		Model:              "MacBookPro-2018",
		Arch:               "Coffee Lake",
		Kernel:             k,
		Power:              power.DefaultConfig(),
		VRM:                vrmAt(1.05e6),
		EmitterGain:        0.67,
		PhaseNoiseSigma:    3e-4,
		CarrierDriftHzPerS: 35,
		DefaultSleepPeriod: 100 * sim.Microsecond,
	}
}

func lenovoThinkpad() Profile {
	k := kernel.DefaultConfig(kernel.Linux)
	k.WakeupJitterSigma = 10 * sim.Microsecond
	return Profile{
		Model:              "Lenovo Thinkpad",
		Arch:               "SkyLake",
		Kernel:             k,
		Power:              power.DefaultConfig(),
		VRM:                vrmAt(890e3),
		EmitterGain:        0.77,
		PhaseNoiseSigma:    2e-4,
		CarrierDriftHzPerS: 20,
		DefaultSleepPeriod: 110 * sim.Microsecond,
	}
}

func sonyUltrabook() Profile {
	k := kernel.DefaultConfig(kernel.Windows)
	k.WakeupJitterSigma = 35 * sim.Microsecond
	return Profile{
		Model:              "Sony Ultrabook",
		Arch:               "Ivy Bridge",
		Kernel:             k,
		Power:              power.DefaultConfig(),
		VRM:                vrmAt(760e3),
		EmitterGain:        0.72,
		PhaseNoiseSigma:    2.5e-4,
		CarrierDriftHzPerS: 30,
		DefaultSleepPeriod: 500 * sim.Microsecond,
	}
}

func vrmAt(freq float64) vrm.Config {
	cfg := vrm.DefaultConfig()
	cfg.SwitchingFreqHz = freq
	cfg.MinPulseCharge = 2.0 / freq
	return cfg
}

// Profiles returns the six Table I laptops in the paper's order.
func Profiles() []Profile {
	return []Profile{
		dellPrecision7290(),
		macBookPro2015(),
		dellInspiron15(),
		macBookPro2018(),
		lenovoThinkpad(),
		sonyUltrabook(),
	}
}

// ByModel looks a profile up by its model string.
func ByModel(model string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Model == model {
			return p, true
		}
	}
	return Profile{}, false
}

// Lookup looks a profile up by its model string, returning a
// self-explanatory error on a miss: the unknown name plus the full list
// of valid models, so every command-line tool reports the same hint
// without rolling its own. Tools should treat the error as a usage
// problem (exit code 2).
func Lookup(model string) (Profile, error) {
	if p, ok := ByModel(model); ok {
		return p, nil
	}
	names := make([]string, 0, 6)
	for _, p := range Profiles() {
		names = append(names, fmt.Sprintf("%q", p.Model))
	}
	return Profile{}, fmt.Errorf("unknown laptop %s (valid models: %s)",
		fmt.Sprintf("%q", model), strings.Join(names, ", "))
}

// Reference returns the Dell Inspiron, the laptop the paper uses for its
// figures and distance experiments.
func Reference() Profile { return dellInspiron15() }

// System is a running target machine.
type System struct {
	Profile Profile
	kern    *kernel.Kernel
	rng     *xrand.Source
}

// NewSystem boots a laptop. All stochastic behaviour derives from seed.
func NewSystem(p Profile, seed int64) *System {
	root := xrand.New(seed)
	kseed := root.Int63()
	return &System{
		Profile: p,
		kern:    kernel.New(p.Kernel, kseed),
		rng:     root,
	}
}

// Kernel exposes the simulated OS for workload injection.
func (s *System) Kernel() *kernel.Kernel { return s.kern }

// Close releases kernel resources.
func (s *System) Close() { s.kern.Close() }

// Run advances the machine by d of simulated time.
func (s *System) Run(d sim.Time) { s.kern.Run(d) }

// EmanationPlan describes how the emissions should be rendered —
// essentially the virtual receiver's tuning.
type EmanationPlan struct {
	SampleRate   float64
	CenterFreqHz float64
	Harmonics    int
}

// DefaultPlan tunes midway between the fundamental and first harmonic
// at the RTL-SDR's maximum rate, so both spikes land in band.
func (s *System) DefaultPlan() EmanationPlan {
	return EmanationPlan{
		SampleRate:   2.4e6,
		CenterFreqHz: 1.5 * s.Profile.VRM.SwitchingFreqHz,
		Harmonics:    2,
	}
}

// pulseTrain returns the VRM switching pulse train for the activity up
// to horizon, drawing from the next fork of the system's random source.
func (s *System) pulseTrain(horizon sim.Time) vrm.Train {
	if s.kern.Now() < horizon {
		panic(fmt.Sprintf("laptop: simulation at %v has not reached horizon %v",
			s.kern.Now(), horizon))
	}
	var loadTrace []power.Span
	switch {
	case s.Profile.DVFSWindow > 0:
		loadTrace = power.DemandTrace(s.kern.Activity(horizon), horizon,
			s.Profile.DVFSWindow, s.Profile.Power)
	case s.kern.Cores() > 1:
		perCore := make([][]kernel.Span, s.kern.Cores())
		for c := range perCore {
			perCore[c] = s.kern.ActivityOn(c, horizon)
		}
		loadTrace = power.TracePerCore(perCore, horizon, s.Profile.Power)
	default:
		loadTrace = power.Trace(s.kern.Activity(horizon), horizon, s.Profile.Power)
	}
	return vrm.NewTrain(loadTrace, horizon, s.Profile.VRM, s.rng.Fork())
}

// Pulses computes the VRM switching pulse train for the activity up to
// horizon — the input both EM renderers consume — as a slice. The
// renderers themselves walk the train without collecting it.
func (s *System) Pulses(horizon sim.Time) []vrm.Pulse {
	return vrm.Collect(s.pulseTrain(horizon))
}

// EmanationsPulseTrain renders the machine's EM output with the
// high-fidelity pulse-train model (see em.RenderPulseTrain): every
// spectral feature emerges from the switching pulse timing instead of
// being synthesized at assumed harmonics.
func (s *System) EmanationsPulseTrain(horizon sim.Time, plan EmanationPlan) []complex128 {
	train := s.pulseTrain(horizon)
	cfg := em.DefaultPulseTrainConfig()
	cfg.CenterFreqHz = plan.CenterFreqHz
	cfg.SampleRate = plan.SampleRate
	cfg.ResonanceHz = 1.45 * s.Profile.VRM.SwitchingFreqHz
	cfg.EmitterGain = s.Profile.EmitterGain
	return em.RenderPulseTrain(train, horizon, cfg, s.rng.Fork())
}

// SampleCount returns the number of samples an emission over
// [0, horizon) has under the plan.
func (p EmanationPlan) SampleCount(horizon sim.Time) int {
	return em.Config{SampleRate: p.SampleRate}.SampleCount(horizon)
}

// Emanations renders the machine's EM output over [0, horizon) as seen
// at the reference distance. Call after Run has advanced past horizon.
func (s *System) Emanations(horizon sim.Time, plan EmanationPlan) []complex128 {
	out := make([]complex128, plan.SampleCount(horizon))
	s.EmanationsInto(out, horizon, plan, nil)
	return out
}

// EmanationsInto is Emanations rendered into out, which must hold
// plan.SampleCount(horizon) samples, with stage called on each piece
// of out as soon as it is final (see em.Render). The pulse train's
// random source is forked before the renderer's, so the walk and the
// sample loop draw from separate streams.
func (s *System) EmanationsInto(out []complex128, horizon sim.Time, plan EmanationPlan, stage em.Stage) {
	train := s.pulseTrain(horizon)
	em.Render(out, train, horizon, s.emConfig(plan), s.rng.Fork(), stage)
}

// emConfig is the oscillator-model synthesis setup for this machine
// under plan.
func (s *System) emConfig(plan EmanationPlan) em.Config {
	return em.Config{
		SwitchingFreqHz:       s.Profile.VRM.SwitchingFreqHz,
		CenterFreqHz:          plan.CenterFreqHz,
		SampleRate:            plan.SampleRate,
		Harmonics:             plan.Harmonics,
		EmitterGain:           s.Profile.EmitterGain,
		PhaseNoiseSigma:       s.Profile.PhaseNoiseSigma,
		CarrierDriftHzPerS:    s.Profile.CarrierDriftHzPerS,
		FreqDitherHz:          s.Profile.VRMDitherHz,
		EnvelopeSmoothPeriods: 2,
	}
}
