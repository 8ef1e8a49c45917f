package em

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// replay walks a prepared pulse slice as a train.
func replay(pulses []vrm.Pulse) vrm.Train {
	return func(emit func(vrm.Pulse)) {
		for _, p := range pulses {
			emit(p)
		}
	}
}

// render renders train into a fresh buffer with no stage.
func render(train vrm.Train, horizon sim.Time, cfg Config, rng *xrand.Source) []complex128 {
	out := make([]complex128, cfg.SampleCount(horizon))
	Render(out, train, horizon, cfg, rng, nil)
	return out
}

// fullLoadPulses builds a constant full-load pulse train at the config's
// switching frequency.
func fullLoadPulses(cfg Config, horizon sim.Time, charge float64) []vrm.Pulse {
	period := sim.FromSeconds(1 / cfg.SwitchingFreqHz)
	var out []vrm.Pulse
	for t := sim.Time(0); t < horizon; t += period {
		out = append(out, vrm.Pulse{At: t, Charge: charge})
	}
	return out
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.SwitchingFreqHz = 0 },
		func(c *Config) { c.SampleRate = 0 },
		func(c *Config) { c.Harmonics = 0 },
		func(c *Config) { c.EmitterGain = -1 },
		func(c *Config) { c.PhaseNoiseSigma = -1 },
		func(c *Config) { c.EnvelopeSmoothPeriods = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestHarmonicOffsetsDefault(t *testing.T) {
	cfg := DefaultConfig()
	offs := cfg.HarmonicOffsets()
	if len(offs) != 2 {
		t.Fatalf("offsets = %v, want fundamental and first harmonic", offs)
	}
	// fc = 1.5 f0, so offsets are -f0/2 and +f0/2.
	if math.Abs(offs[0]+485e3) > 1 || math.Abs(offs[1]-485e3) > 1 {
		t.Fatalf("offsets = %v", offs)
	}
}

func TestHarmonicOffsetsSkipsOutOfBand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Harmonics = 10 // 3rd harmonic and up fall out of the 2.4MS/s band
	offs := cfg.HarmonicOffsets()
	for _, o := range offs {
		if math.Abs(o) > 0.46*cfg.SampleRate {
			t.Fatalf("out-of-band offset %v rendered", o)
		}
	}
	if len(offs) != 2 {
		t.Fatalf("offsets = %v", offs)
	}
}

func TestSampleCount(t *testing.T) {
	cfg := DefaultConfig()
	if n := cfg.SampleCount(sim.Millisecond); n != 2400 {
		t.Fatalf("SampleCount(1ms) = %d", n)
	}
	if n := cfg.SampleCount(0); n != 0 {
		t.Fatalf("SampleCount(0) = %d", n)
	}
}

func TestRenderSpikesAtHarmonics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhaseNoiseSigma = 0
	horizon := 20 * sim.Millisecond
	pulses := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
	iq := render(replay(pulses), horizon, cfg, xrand.New(1))

	psd := dsp.WelchPSD(iq, 4096)
	fundBin := dsp.FrequencyBin(cfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate)
	harmBin := dsp.FrequencyBin(2*cfg.SwitchingFreqHz-cfg.CenterFreqHz, 4096, cfg.SampleRate)

	_, peak := dsp.Max(psd)
	if peak != fundBin {
		t.Fatalf("PSD peak at bin %d, want fundamental at %d", peak, fundBin)
	}
	// First harmonic present and weaker than the fundamental (1/k).
	if psd[harmBin] <= 0 {
		t.Fatal("first harmonic absent")
	}
	if psd[harmBin] >= psd[fundBin] {
		t.Fatalf("harmonic (%v) not weaker than fundamental (%v)", psd[harmBin], psd[fundBin])
	}
	// Ratio should be near (1/2)^2 in power.
	ratio := psd[harmBin] / psd[fundBin]
	if ratio < 0.15 || ratio > 0.4 {
		t.Fatalf("harmonic/fundamental power ratio = %v, want ~0.25", ratio)
	}
}

func TestRenderAmplitudeTracksLoad(t *testing.T) {
	cfg := DefaultConfig()
	horizon := 10 * sim.Millisecond
	strong := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
	weak := fullLoadPulses(cfg, horizon, 0.5/cfg.SwitchingFreqHz)
	strongIQ := render(replay(strong), horizon, cfg, xrand.New(2))
	weakIQ := render(replay(weak), horizon, cfg, xrand.New(2))
	if RMS(strongIQ) < 10*RMS(weakIQ) {
		t.Fatalf("strong RMS %v vs weak RMS %v: modulation too shallow",
			RMS(strongIQ), RMS(weakIQ))
	}
}

func TestRenderOnOffKeying(t *testing.T) {
	// Pulses only in the first half: band energy must collapse in the
	// second half.
	cfg := DefaultConfig()
	horizon := 10 * sim.Millisecond
	all := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
	var firstHalf []vrm.Pulse
	for _, p := range all {
		if p.At < horizon/2 {
			firstHalf = append(firstHalf, p)
		}
	}
	iq := render(replay(firstHalf), horizon, cfg, xrand.New(3))
	n := len(iq)
	on := RMS(iq[:n/3])
	off := RMS(iq[2*n/3:])
	if off > on/20 {
		t.Fatalf("off-state RMS %v not far below on-state %v", off, on)
	}
}

func TestRenderDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	horizon := sim.Millisecond
	pulses := fullLoadPulses(cfg, horizon, 1e-5)
	a := render(replay(pulses), horizon, cfg, xrand.New(4))
	b := render(replay(pulses), horizon, cfg, xrand.New(4))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("render diverged at sample %d", i)
		}
	}
}

func TestRenderEmptyPulses(t *testing.T) {
	cfg := DefaultConfig()
	iq := render(replay(nil), sim.Millisecond, cfg, xrand.New(5))
	if len(iq) != cfg.SampleCount(sim.Millisecond) {
		t.Fatalf("len = %d", len(iq))
	}
	if RMS(iq) != 0 {
		t.Fatalf("silent render has RMS %v", RMS(iq))
	}
}

func TestRenderZeroHorizon(t *testing.T) {
	iq := render(replay(nil), 0, DefaultConfig(), xrand.New(6))
	if len(iq) != 0 {
		t.Fatalf("len = %d", len(iq))
	}
}

func TestPhaseNoiseBroadensSpike(t *testing.T) {
	horizon := 50 * sim.Millisecond
	measureWidth := func(sigma float64) float64 {
		cfg := DefaultConfig()
		cfg.Harmonics = 1
		cfg.PhaseNoiseSigma = sigma
		pulses := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
		iq := render(replay(pulses), horizon, cfg, xrand.New(7))
		psd := dsp.WelchPSD(iq, 8192)
		peak, _ := dsp.Max(psd)
		// Count bins above half the peak.
		n := 0
		for _, v := range psd {
			if v > peak/2 {
				n++
			}
		}
		return float64(n)
	}
	// A random-walk phase noise of sigma rad/sample has a Lorentzian
	// linewidth of sigma^2*fs/(2pi); sigma=0.1 at 2.4 MS/s gives ~4 kHz,
	// a dozen bins of the 8192-point PSD.
	if clean, noisy := measureWidth(0), measureWidth(0.1); noisy <= clean {
		t.Fatalf("phase noise did not broaden spike: clean %v noisy %v", clean, noisy)
	}
}

func TestRMS(t *testing.T) {
	if RMS(nil) != 0 {
		t.Error("RMS(nil) != 0")
	}
	x := []complex128{3 + 4i, 3 + 4i}
	if got := RMS(x); math.Abs(got-5) > 1e-12 {
		t.Errorf("RMS = %v, want 5", got)
	}
}

func TestCarrierDriftMovesSpike(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Harmonics = 1
	cfg.PhaseNoiseSigma = 0
	cfg.CarrierDriftHzPerS = 50e3 // exaggerated for a short render
	horizon := 100 * sim.Millisecond
	pulses := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
	iq := render(replay(pulses), horizon, cfg, xrand.New(30))

	// Compare the spike position in the first and last fifths.
	n := len(iq)
	peakOffset := func(seg []complex128) float64 {
		psd := dsp.WelchPSD(seg, 4096)
		_, bin := dsp.Max(psd)
		return dsp.BinFrequency(bin, 4096, cfg.SampleRate)
	}
	early := peakOffset(iq[:n/5])
	late := peakOffset(iq[4*n/5:])
	moved := late - early
	// 50 kHz/s over ~80 ms between window centers: about 4 kHz.
	if moved < 2e3 || moved > 7e3 {
		t.Fatalf("spike moved %v Hz, want ~4 kHz", moved)
	}
}

// renderPanic renders train at GOMAXPROCS procs and returns what Render
// panicked with.
func renderPanic(procs int, train vrm.Train) (got any) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer func() { got = recover() }()
	render(train, 20*sim.Millisecond, DefaultConfig(), xrand.New(8))
	return nil
}

func TestRenderRejectsOutOfOrderTrain(t *testing.T) {
	// A pulse a full switching period behind the walk would land in a
	// bucket the sample loop may already have rendered.
	period := sim.FromSeconds(1 / DefaultConfig().SwitchingFreqHz)
	late := func(emit func(vrm.Pulse)) {
		for at := sim.Time(0); at < 15*sim.Millisecond; at += period {
			emit(vrm.Pulse{At: at, Charge: 1e-6})
		}
		emit(vrm.Pulse{At: sim.Millisecond, Charge: 1e-6})
	}
	for _, procs := range []int{1, 2} {
		if got := renderPanic(procs, late); got == nil {
			t.Errorf("GOMAXPROCS %d: out-of-order train rendered without a panic", procs)
		}
	}
}

func TestRenderReraisesTrainPanic(t *testing.T) {
	boom := func(emit func(vrm.Pulse)) {
		emit(vrm.Pulse{At: sim.Millisecond, Charge: 1e-6})
		panic("boom")
	}
	for _, procs := range []int{1, 2} {
		if got := renderPanic(procs, boom); got != "boom" {
			t.Errorf("GOMAXPROCS %d: Render panicked with %v, want the train's panic", procs, got)
		}
	}
}

// TestRenderWaitsForFinalBuckets stalls the walk just after each
// watermark hand-over. A sample loop that rendered past the final
// buckets would then miss the pulses still to come for them, and differ
// from the render that walks the train first.
func TestRenderWaitsForFinalBuckets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleRate = 240e3
	cfg.CenterFreqHz = cfg.SwitchingFreqHz - 60e3
	cfg.Harmonics = 1
	horizon := 300 * sim.Millisecond
	dt := sim.FromSeconds(1 / cfg.SampleRate)
	pulses := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
	for i := range pulses {
		pulses[i].Charge *= 1 + 0.5*math.Sin(float64(i))
	}
	renderAt := func(procs int) []complex128 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		train := func(emit func(vrm.Pulse)) {
			for _, p := range pulses {
				emit(p)
				// Hand-overs fall in the first buckets of each block.
				if procs > 1 && int(p.At/dt)%renderBlock < 4 {
					time.Sleep(time.Millisecond)
				}
			}
		}
		return render(train, horizon, cfg, xrand.New(9))
	}
	want, got := renderAt(1), renderAt(4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}
