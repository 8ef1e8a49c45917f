package core

import (
	"strings"
	"testing"

	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
)

func TestNewTestbedDefaults(t *testing.T) {
	tb := NewTestbed()
	if tb.Profile.Model != "Dell Inspiron 15-3537" {
		t.Errorf("default laptop = %v", tb.Profile.Model)
	}
	if tb.Channel.DistanceM != 0.10 {
		t.Errorf("default distance = %v", tb.Channel.DistanceM)
	}
	if tb.Radio.Antenna != sdr.CoilProbe {
		t.Errorf("default antenna = %v", tb.Radio.Antenna)
	}
}

func TestOptionsApply(t *testing.T) {
	prof, _ := laptop.ByModel("Sony Ultrabook")
	tb := NewTestbed(
		WithLaptop(prof),
		WithDistance(2.5),
		WithWall(15),
		WithAntenna(sdr.LoopLA390),
		WithNoise(0.01),
		WithSeed(99),
	)
	if tb.Profile.Model != "Sony Ultrabook" || tb.Channel.DistanceM != 2.5 ||
		tb.Channel.WallLossDB != 15 || tb.Radio.Antenna != sdr.LoopLA390 ||
		tb.Channel.NoiseSigma != 0.01 || tb.Seed != 99 {
		t.Fatalf("options not applied: %+v", tb)
	}
}

func TestNLoSOfficeSetup(t *testing.T) {
	tb := NLoSOffice(5)
	if tb.Channel.WallLossDB == 0 || tb.Channel.DistanceM != 1.5 {
		t.Fatalf("NLoS geometry wrong: %+v", tb.Channel)
	}
	if len(tb.Channel.Interferers) < 2 {
		t.Fatal("NLoS office must include interferers")
	}
}

func TestRunCovertNearField(t *testing.T) {
	tb := NewTestbed(WithSeed(11))
	res := tb.RunCovert(CovertConfig{PayloadBits: 96})
	if res.ErrorRate() > 0.03 {
		t.Fatalf("near-field error rate = %v (%v)", res.ErrorRate(), res.Measurement)
	}
	if res.TransmitRate < 2500 {
		t.Fatalf("transmit rate = %v, want kbps-class", res.TransmitRate)
	}
	if !res.PayloadOK {
		t.Fatal("payload sync failed")
	}
	if res.Demod == nil || res.Run == nil || len(res.Payload) != 96 {
		t.Fatal("result missing artifacts")
	}
}

func TestRunCovertDeterministic(t *testing.T) {
	a := NewTestbed(WithSeed(3)).RunCovert(CovertConfig{PayloadBits: 48})
	b := NewTestbed(WithSeed(3)).RunCovert(CovertConfig{PayloadBits: 48})
	if a.ErrorRate() != b.ErrorRate() || a.TransmitRate != b.TransmitRate {
		t.Fatalf("same seed differs: %v vs %v", a.Measurement, b.Measurement)
	}
}

func TestRunCovertExplicitPayload(t *testing.T) {
	payload := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	tb := NewTestbed(WithSeed(4))
	res := tb.RunCovert(CovertConfig{Payload: payload})
	if len(res.Payload) != len(payload) {
		t.Fatalf("payload length = %d", len(res.Payload))
	}
}

func TestRunCovertWithBackground(t *testing.T) {
	tb := NewTestbed(WithSeed(12))
	quiet := tb.RunCovert(CovertConfig{PayloadBits: 96})
	loaded := tb.RunCovert(CovertConfig{PayloadBits: 96, Background: true})
	// Background activity must not break the channel outright, but it
	// does degrade it.
	if loaded.ErrorRate() < quiet.ErrorRate() {
		t.Logf("note: background run cleaner than quiet run (%v vs %v)",
			loaded.ErrorRate(), quiet.ErrorRate())
	}
	if len(loaded.Demod.Bits) == 0 {
		t.Fatal("background load killed the channel completely")
	}
}

func TestRateSearchMeetsTarget(t *testing.T) {
	tb := NewTestbed(WithSeed(13), WithDistance(1.0), WithAntenna(sdr.LoopLA390))
	res, ok := tb.RateSearch(0.02, CovertConfig{PayloadBits: 96})
	if !ok {
		t.Fatalf("no rate met the target; last = %v", res.Measurement)
	}
	if res.ErrorRate() > 0.02 {
		t.Fatalf("returned run has error rate %v", res.ErrorRate())
	}
}

func TestRunKeylogNearField(t *testing.T) {
	tb := NewTestbed(WithSeed(14))
	res := tb.RunKeylog(KeylogConfig{Words: 12})
	if res.Char.TPR < 0.95 {
		t.Fatalf("char TPR = %v", res.Char.TPR)
	}
	if res.Char.FPR > 0.1 {
		t.Fatalf("char FPR = %v", res.Char.FPR)
	}
	if res.Word.Recall < 0.8 {
		t.Fatalf("word recall = %v", res.Word.Recall)
	}
	if res.Text == "" || len(res.Events) == 0 || res.Detection == nil {
		t.Fatal("result missing artifacts")
	}
}

func TestRunKeylogExplicitText(t *testing.T) {
	tb := NewTestbed(WithSeed(15))
	res := tb.RunKeylog(KeylogConfig{Text: "can you hear me"})
	if res.Text != "can you hear me" {
		t.Fatalf("text = %q", res.Text)
	}
	if res.Char.Truth != len("can you hear me") {
		t.Fatalf("truth count = %d", res.Char.Truth)
	}
}

func TestMicrobenchSpectrogramShowsAlternation(t *testing.T) {
	tb := NewTestbed(WithSeed(16))
	s := tb.MicrobenchSpectrogram(2*sim.Millisecond, 2*sim.Millisecond, 10)
	if s.Frames() < 10 {
		t.Fatalf("only %d frames", s.Frames())
	}
	f0 := tb.Profile.VRM.SwitchingFreqHz
	col := s.Column(s.Bin(f0 - 1.5*f0))
	hi := dsp.Quantile(col, 0.9)
	lo := dsp.Quantile(col, 0.1)
	if hi < 5*lo {
		t.Fatalf("no strong/weak spike alternation: hi %v lo %v", hi, lo)
	}
}

func TestStateAblationMatchesSection3(t *testing.T) {
	tb := NewTestbed(WithSeed(17))
	rows := tb.StateAblation(2*sim.Millisecond, 2*sim.Millisecond, 12)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Either mechanism alone keeps the modulation alive.
	for _, name := range []string{"P+C enabled", "C-states only", "P-states only"} {
		if byName[name].SpikeOnOffRatio < 3 {
			t.Errorf("%s: on/off ratio %v, want modulation present",
				name, byName[name].SpikeOnOffRatio)
		}
	}
	// Both disabled: modulation collapses...
	off := byName["both disabled"]
	if off.SpikeOnOffRatio > 2 {
		t.Errorf("both disabled: on/off ratio %v, want ~1", off.SpikeOnOffRatio)
	}
	// ...while the idle-phase spike is much STRONGER than with power
	// management on ("much stronger magnitude but continuously present").
	on := byName["P+C enabled"]
	if off.MeanSpikeStrength < 5*on.MeanSpikeStrength {
		t.Errorf("disabled idle spike %v not much stronger than managed %v",
			off.MeanSpikeStrength, on.MeanSpikeStrength)
	}
}

func TestActivityDurationTracksWorkload(t *testing.T) {
	tb := NewTestbed(WithSeed(18))
	short, err := tb.ActivityDuration(50 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	long, err := tb.ActivityDuration(200 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Fatalf("durations not ordered: %v vs %v", short, long)
	}
	if short < 0.03 || short > 0.09 {
		t.Fatalf("short duration = %v, want ~0.05", short)
	}
	if long < 0.15 || long > 0.3 {
		t.Fatalf("long duration = %v, want ~0.2", long)
	}
}

func TestRenderSpectrogram(t *testing.T) {
	tb := NewTestbed(WithSeed(19))
	s := tb.MicrobenchSpectrogram(sim.Millisecond, sim.Millisecond, 5)
	var sb strings.Builder
	RenderSpectrogram(&sb, s, 12, 60)
	out := sb.String()
	if strings.Count(out, "\n") < 12 {
		t.Fatalf("render too short:\n%s", out)
	}
	if !strings.Contains(out, "kHz") {
		t.Fatal("missing frequency labels")
	}
	// Empty case.
	sb.Reset()
	RenderSpectrogram(&sb, &dsp.Spectrogram{FFTSize: 16, Hop: 8, SampleRate: 1}, 4, 10)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty spectrogram not flagged")
	}
}

func TestRenderTrace(t *testing.T) {
	var sb strings.Builder
	RenderTrace(&sb, []float64{0, 1, 2, 3, 2, 1, 0}, 4, 20)
	if strings.Count(sb.String(), "\n") != 4 {
		t.Fatalf("trace render:\n%s", sb.String())
	}
	sb.Reset()
	RenderTrace(&sb, nil, 4, 20)
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty trace not flagged")
	}
}

// TestCovertRXConfigMatchesPrepareCovert pins the single source of the
// covert receiver config: the pure CovertRXConfig (which the perfbench
// traced chain calls to reproduce RunCovert) must equal the RXCfg that
// PrepareCovert hands the demodulator after simulating the transmitter,
// across every CovertConfig field that reaches either side, and its bit
// period must be the simulated transmitter's.
func TestCovertRXConfigMatchesPrepareCovert(t *testing.T) {
	tb := NewTestbed(WithSeed(5))
	for _, cfg := range []CovertConfig{
		{},
		{SleepPeriod: 300 * sim.Microsecond},
		{RXHarmonics: 3, RXResync: true, RXCarrierRetries: 2},
		{Code: covert.CodeHamming74, Interleave: 4},
		{SleepPeriod: 250 * sim.Microsecond, Code: covert.CodeParity, Interleave: 2,
			RXHarmonics: 1, RXResync: true, RXCarrierRetries: 1},
	} {
		cfg.PayloadBits = 16
		p := tb.PrepareCovert(cfg)
		p.Cap.Recycle()
		if got := tb.CovertRXConfig(cfg); got != p.RXCfg {
			t.Fatalf("%+v:\nCovertRXConfig %+v\nPrepareCovert  %+v", cfg, got, p.RXCfg)
		}
		// The config is built from the default TX config; its bit period
		// must be the simulated transmitter's.
		if want := p.TXCfg.BitPeriod() / 2; p.RXCfg.MinBitPeriod != want {
			t.Fatalf("%+v: MinBitPeriod %v, simulated transmitter gives %v",
				cfg, p.RXCfg.MinBitPeriod, want)
		}
	}
}
