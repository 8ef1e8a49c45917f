package em

import (
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/power"
	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// renderTrain builds a pulse train from a constant load and renders it
// with the high-fidelity model.
func renderTrain(t *testing.T, vcfg vrm.Config, currentA float64,
	horizon sim.Time, seed int64) ([]complex128, PulseTrainConfig) {
	t.Helper()
	trace := []power.Span{{Start: 0, End: horizon, Current: currentA, Voltage: 1.2}}
	train := vrm.NewTrain(trace, horizon, vcfg, xrand.New(seed))
	cfg := DefaultPulseTrainConfig()
	cfg.CenterFreqHz = 1.5 * vcfg.SwitchingFreqHz
	cfg.ResonanceHz = 1.45 * vcfg.SwitchingFreqHz
	return RenderPulseTrain(train, horizon, cfg, xrand.New(seed+1)), cfg
}

func vcfgClean() vrm.Config {
	cfg := vrm.DefaultConfig()
	cfg.PeriodJitterFrac = 0
	cfg.AmplitudeNoiseFrac = 0
	return cfg
}

func psdPeakNear(psd []float64, f float64, m int, sr float64, widthBins int) float64 {
	center := dsp.FrequencyBin(f, m, sr)
	var best float64
	for d := -widthBins; d <= widthBins; d++ {
		b := (center + d + m) % m
		if psd[b] > best {
			best = psd[b]
		}
	}
	return best
}

func TestPulseTrainCombEmerges(t *testing.T) {
	// A periodic pulse train must concentrate energy at f0 and 2*f0
	// without those frequencies ever being told to the renderer.
	vcfg := vcfgClean()
	iq, cfg := renderTrain(t, vcfg, 20, 20*sim.Millisecond, 1)
	psd := dsp.WelchPSD(iq, 4096)
	floor := dsp.Median(psd)
	fund := psdPeakNear(psd, vcfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate, 2)
	harm := psdPeakNear(psd, 2*vcfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate, 2)
	if fund < 100*floor {
		t.Fatalf("fundamental not emergent: %v vs floor %v", fund, floor)
	}
	if harm < 10*floor {
		t.Fatalf("first harmonic not emergent: %v vs floor %v", harm, floor)
	}
}

func TestPulseTrainSheddingCollapsesComb(t *testing.T) {
	vcfg := vcfgClean()
	active, cfg := renderTrain(t, vcfg, 20, 20*sim.Millisecond, 2)
	idle, _ := renderTrain(t, vcfg, 0.5, 20*sim.Millisecond, 2)
	fundA := psdPeakNear(dsp.WelchPSD(active, 4096),
		vcfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate, 2)
	fundI := psdPeakNear(dsp.WelchPSD(idle, 4096),
		vcfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate, 2)
	if fundI > fundA/50 {
		t.Fatalf("idle fundamental %v not far below active %v", fundI, fundA)
	}
}

func TestPulseTrainJitterBroadensSpike(t *testing.T) {
	clean := vcfgClean()
	dirty := vcfgClean()
	dirty.PeriodJitterFrac = 0.03
	width := func(vcfg vrm.Config, seed int64) int {
		iq, _ := renderTrain(t, vcfg, 20, 20*sim.Millisecond, seed)
		psd := dsp.WelchPSD(iq, 4096)
		peak, _ := dsp.Max(psd)
		n := 0
		for _, v := range psd {
			if v > peak/4 {
				n++
			}
		}
		return n
	}
	if wClean, wDirty := width(clean, 3), width(dirty, 3); wDirty <= wClean {
		t.Fatalf("jitter did not broaden the spike: %d vs %d bins", wDirty, wClean)
	}
}

func TestPulseTrainMultiPhaseSuppressesFundamental(t *testing.T) {
	// Interleaved phases cancel most of the fundamental; the imbalance
	// leaves a residue. Compare the fundamental-to-total ratio.
	single := vcfgClean()
	quad := vcfgClean()
	quad.Phases = 4
	quad.PhaseImbalanceFrac = 0.1

	ratio := func(vcfg vrm.Config) float64 {
		iq, cfg := renderTrain(t, vcfg, 20, 20*sim.Millisecond, 4)
		psd := dsp.WelchPSD(iq, 4096)
		fund := psdPeakNear(psd, vcfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate, 2)
		var total float64
		for _, v := range psd {
			total += v
		}
		return fund / total
	}
	if rs, rq := ratio(single), ratio(quad); rq > rs/4 {
		t.Fatalf("interleaving did not suppress the fundamental: single %v quad %v", rs, rq)
	}
}

func TestPulseTrainAmplitudeFollowsLoad(t *testing.T) {
	vcfg := vcfgClean()
	strong, _ := renderTrain(t, vcfg, 20, 5*sim.Millisecond, 5)
	weak, _ := renderTrain(t, vcfg, 3, 5*sim.Millisecond, 5)
	if RMS(strong) < 3*RMS(weak) {
		t.Fatalf("RMS not tracking load: %v vs %v", RMS(strong), RMS(weak))
	}
}

func TestPulseTrainEmpty(t *testing.T) {
	cfg := DefaultPulseTrainConfig()
	iq := RenderPulseTrain(replay(nil), sim.Millisecond, cfg, xrand.New(6))
	if RMS(iq) != 0 {
		t.Fatal("silent train has energy")
	}
	if len(RenderPulseTrain(replay(nil), 0, cfg, xrand.New(6))) != 0 {
		t.Fatal("zero horizon produced samples")
	}
}

func TestPulseTrainValidate(t *testing.T) {
	mutations := []func(*PulseTrainConfig){
		func(c *PulseTrainConfig) { c.SampleRate = 0 },
		func(c *PulseTrainConfig) { c.CenterFreqHz = 0 },
		func(c *PulseTrainConfig) { c.ResonanceHz = -1 },
		func(c *PulseTrainConfig) { c.QualityFactor = 0 },
		func(c *PulseTrainConfig) { c.EmitterGain = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultPulseTrainConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPulseTrainAgreesWithOscillatorModel(t *testing.T) {
	// Both renderers must put their strongest energy at the same
	// baseband offset for the same pulse train — the oscillator model
	// is a calibrated shortcut of this one.
	vcfg := vcfgClean()
	horizon := 20 * sim.Millisecond
	trace := []power.Span{{Start: 0, End: horizon, Current: 20, Voltage: 1.2}}
	pulses := vrm.Pulses(trace, horizon, vcfg, xrand.New(7))

	ptCfg := DefaultPulseTrainConfig()
	hifi := RenderPulseTrain(replay(pulses), horizon, ptCfg, xrand.New(8))

	oscCfg := DefaultConfig()
	oscCfg.PhaseNoiseSigma = 0
	fast := render(replay(pulses), horizon, oscCfg, xrand.New(8))

	peakBin := func(iq []complex128) int {
		psd := dsp.WelchPSD(iq, 4096)
		_, b := dsp.Max(psd)
		return b
	}
	hb, fb := peakBin(hifi), peakBin(fast)
	if d := hb - fb; d < -2 || d > 2 {
		t.Fatalf("models disagree on the dominant line: bins %d vs %d", hb, fb)
	}
}
