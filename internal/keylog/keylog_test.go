package keylog

import (
	"strings"
	"testing"

	"pmuleak/internal/emchannel"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

func TestKeyDistance(t *testing.T) {
	if d := KeyDistance('f', 'f'); d != 0 {
		t.Errorf("same-key distance = %v", d)
	}
	if d := KeyDistance('f', 'g'); d < 0.9 || d > 1.1 {
		t.Errorf("adjacent distance = %v", d)
	}
	if KeyDistance('q', 'p') < 5 {
		t.Error("cross-keyboard distance too small")
	}
	if d := KeyDistance('é', 'f'); d != 1 {
		t.Errorf("unknown key distance = %v", d)
	}
}

func TestTypistConfigValidate(t *testing.T) {
	if err := DefaultTypistConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultTypistConfig()
	bad.BaseInterKey = 0
	if bad.Validate() == nil {
		t.Error("zero BaseInterKey accepted")
	}
	bad = DefaultTypistConfig()
	bad.JitterFrac = 1
	if bad.Validate() == nil {
		t.Error("JitterFrac 1 accepted")
	}
	bad = DefaultTypistConfig()
	bad.WordBoundaryFactor = 0.5
	if bad.Validate() == nil {
		t.Error("WordBoundaryFactor < 1 accepted")
	}
}

func TestTypeProducesOrderedEvents(t *testing.T) {
	rng := xrand.New(1)
	events := Type("can you hear me", 100*sim.Millisecond, DefaultTypistConfig(), rng)
	if len(events) != len("can you hear me") {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Press != 100*sim.Millisecond {
		t.Fatalf("first press at %v", events[0].Press)
	}
	for i, ev := range events {
		if ev.Release <= ev.Press {
			t.Fatalf("event %d: release %v before press %v", i, ev.Release, ev.Press)
		}
		if i > 0 && ev.Press <= events[i-1].Press {
			t.Fatalf("event %d out of order", i)
		}
	}
}

func TestTypeSalthouseDistanceEffect(t *testing.T) {
	// Finding (i): far-apart keys in quicker succession. Compare mean
	// inter-key time for "qp" (far) vs "de" (near, not a frequent
	// digraph in our table... use "sd" adjacent, not in table).
	cfg := DefaultTypistConfig()
	cfg.JitterFrac = 0
	cfg.PracticeGain = 0
	rng := xrand.New(2)
	far := Type("qpqpqpqp", 0, cfg, rng)
	near := Type("sasasasa", 0, cfg, rng) // 'sa' adjacent keys
	farGap := far[1].Press - far[0].Press
	nearGap := near[1].Press - near[0].Press
	if farGap >= nearGap {
		t.Fatalf("far gap %v not quicker than near gap %v", farGap, nearGap)
	}
}

func TestTypeDigraphEffect(t *testing.T) {
	cfg := DefaultTypistConfig()
	cfg.JitterFrac = 0
	cfg.PracticeGain = 0
	cfg.DistanceGain = 0
	rng := xrand.New(3)
	freq := Type("ththth", 0, cfg, rng) // 'th' is frequent
	rare := Type("tztztz", 0, cfg, rng) // 'tz' is not
	if freq[1].Press-freq[0].Press >= rare[1].Press-rare[0].Press {
		t.Fatal("frequent digraph not faster")
	}
}

func TestTypePracticeEffect(t *testing.T) {
	cfg := DefaultTypistConfig()
	cfg.JitterFrac = 0
	rng := xrand.New(4)
	events := Type("ababababababab", 0, cfg, rng)
	firstGap := events[1].Press - events[0].Press
	lastGap := events[len(events)-1].Press - events[len(events)-2].Press
	if lastGap >= firstGap {
		t.Fatalf("practice did not speed up: first %v last %v", firstGap, lastGap)
	}
}

func TestTypeWordBoundaryPause(t *testing.T) {
	cfg := DefaultTypistConfig()
	cfg.JitterFrac = 0
	rng := xrand.New(5)
	events := Type("ab cd", 0, cfg, rng)
	inner := events[1].Press - events[0].Press
	intoSpace := events[2].Press - events[1].Press
	if intoSpace <= inner {
		t.Fatalf("no pause at word boundary: inner %v boundary %v", inner, intoSpace)
	}
}

func TestWordsAndLengths(t *testing.T) {
	lens := WordLengths("can you hear me")
	want := []int{3, 3, 4, 2}
	if len(lens) != 4 {
		t.Fatalf("lens = %v", lens)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("lens = %v", lens)
		}
	}
}

func TestRandomWords(t *testing.T) {
	rng := xrand.New(6)
	text := RandomWords(50, rng)
	words := Words(text)
	if len(words) != 50 {
		t.Fatalf("got %d words", len(words))
	}
	for _, w := range words {
		if len(w) < 2 || len(w) > 9 {
			t.Fatalf("odd word %q", w)
		}
		if strings.ContainsAny(w, " \t") {
			t.Fatalf("word contains whitespace: %q", w)
		}
	}
}

func TestHandlingConfigValidate(t *testing.T) {
	if err := DefaultHandlingConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultHandlingConfig()
	bad.BurstMax = bad.BurstMin - 1
	if bad.Validate() == nil {
		t.Error("inverted burst bounds accepted")
	}
	bad = DefaultHandlingConfig()
	bad.AppNoiseRate = -1
	if bad.Validate() == nil {
		t.Error("negative noise rate accepted")
	}
}

func TestDetectorConfigValidate(t *testing.T) {
	if err := DefaultDetectorConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultDetectorConfig()
	bad.Window = 0
	if bad.Validate() == nil {
		t.Error("zero window accepted")
	}
	bad = DefaultDetectorConfig()
	bad.MaxKeystroke = bad.MinKeystroke
	if bad.Validate() == nil {
		t.Error("MaxKeystroke <= MinKeystroke accepted")
	}
}

func TestScoreKeystrokesExact(t *testing.T) {
	truth := []KeyEvent{
		{Press: 100 * sim.Millisecond},
		{Press: 300 * sim.Millisecond},
		{Press: 500 * sim.Millisecond},
	}
	detected := []Keystroke{
		{Start: 0.101, End: 0.18},
		{Start: 0.299, End: 0.36},
		{Start: 0.700, End: 0.75}, // false positive
	}
	s := ScoreKeystrokes(truth, detected, 25*sim.Millisecond)
	if s.Matched != 2 {
		t.Fatalf("matched = %d", s.Matched)
	}
	if s.TPR < 0.66 || s.TPR > 0.67 {
		t.Fatalf("TPR = %v", s.TPR)
	}
	if s.FPR < 0.33 || s.FPR > 0.34 {
		t.Fatalf("FPR = %v", s.FPR)
	}
}

func TestScoreKeystrokesNoDoubleClaim(t *testing.T) {
	truth := []KeyEvent{{Press: 100 * sim.Millisecond}}
	detected := []Keystroke{
		{Start: 0.100, End: 0.15},
		{Start: 0.105, End: 0.16},
	}
	s := ScoreKeystrokes(truth, detected, 25*sim.Millisecond)
	if s.Matched != 1 {
		t.Fatalf("matched = %d, want 1 (no double claim)", s.Matched)
	}
}

func TestScoreKeystrokesEmpty(t *testing.T) {
	s := ScoreKeystrokes(nil, nil, sim.Millisecond)
	if s.TPR != 0 || s.FPR != 0 {
		t.Fatalf("empty score = %+v", s)
	}
}

func TestGroupWordsBasic(t *testing.T) {
	// Three-letter word, space, two-letter word with clear boundaries.
	ks := []Keystroke{
		{Start: 0.0}, {Start: 0.2}, {Start: 0.4}, // word 1
		{Start: 0.75},              // space
		{Start: 1.1}, {Start: 1.3}, // word 2
	}
	groups := GroupWords(ks, 0)
	lens := PredictedWordLengths(groups)
	if len(lens) != 2 || lens[0] != 3 || lens[1] != 2 {
		t.Fatalf("lens = %v", lens)
	}
}

func TestGroupWordsEmpty(t *testing.T) {
	if g := GroupWords(nil, 0); g != nil {
		t.Fatalf("groups = %v", g)
	}
}

func TestGroupWordsSingleKeystroke(t *testing.T) {
	g := GroupWords([]Keystroke{{Start: 1}}, 0)
	if len(g) != 1 || len(g[0]) != 1 {
		t.Fatalf("groups = %v", g)
	}
}

func TestScoreWordsPerfect(t *testing.T) {
	s := ScoreWords([]int{3, 4, 2}, []int{3, 4, 2})
	if s.Precision != 1 || s.Recall != 1 {
		t.Fatalf("score = %+v", s)
	}
}

func TestScoreWordsPartial(t *testing.T) {
	// One length wrong, one word missing.
	s := ScoreWords([]int{3, 4, 2, 5}, []int{3, 9, 2})
	if s.Precision <= 0.5 || s.Precision >= 1 {
		t.Fatalf("precision = %v", s.Precision)
	}
	if s.Recall <= 0.5 || s.Recall >= 1 {
		t.Fatalf("recall = %v", s.Recall)
	}
}

func TestScoreWordsEmpty(t *testing.T) {
	s := ScoreWords(nil, nil)
	if s.Precision != 0 || s.Recall != 0 {
		t.Fatalf("score = %+v", s)
	}
}

// keylogPlan is the narrowband tuning used for keystroke detection: the
// fundamental spike alone in a 240 kHz capture.
func keylogPlan(prof laptop.Profile) laptop.EmanationPlan {
	return laptop.EmanationPlan{
		SampleRate:   240e3,
		CenterFreqHz: prof.VRM.SwitchingFreqHz - 60e3,
		Harmonics:    1,
	}
}

// runKeylog performs the full typing -> emanation -> detection cycle.
func runKeylog(t *testing.T, text string, seed int64, chanCfg emchannel.Config,
	ant sdr.Antenna) ([]KeyEvent, *Detection) {
	t.Helper()
	prof, _ := laptop.ByModel("Dell Precision 7290")
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()

	rng := xrand.New(seed + 500)
	events := Type(text, 200*sim.Millisecond, DefaultTypistConfig(), rng)
	horizon := SessionHorizon(events)
	Inject(sys.Kernel(), events, horizon, DefaultHandlingConfig(), rng.Fork())
	sys.Run(horizon)

	plan := keylogPlan(prof)
	field := sys.Emanations(horizon, plan)
	field = emchannel.Apply(field, plan.SampleRate, chanCfg, rng.Fork())

	sdrCfg := sdr.DefaultConfig()
	sdrCfg.SampleRate = plan.SampleRate
	sdrCfg.Antenna = ant
	cap := sdr.Acquire(field, plan.CenterFreqHz, sdrCfg, rng.Fork())

	detCfg := DefaultDetectorConfig()
	detCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	return events, Detect(cap, detCfg)
}

func TestEndToEndKeystrokeDetection(t *testing.T) {
	text := RandomWords(15, xrand.New(21))
	events, det := runKeylog(t, text, 22, emchannel.DefaultConfig(), sdr.CoilProbe)
	s := ScoreKeystrokes(events, det.Keystrokes, 30*sim.Millisecond)
	if s.TPR < 0.95 {
		t.Fatalf("near-field TPR = %v (matched %d/%d), want >= 0.95",
			s.TPR, s.Matched, s.Truth)
	}
	if s.FPR > 0.10 {
		t.Fatalf("near-field FPR = %v, want <= 0.10", s.FPR)
	}
}

func TestEndToEndWordRecovery(t *testing.T) {
	text := RandomWords(18, xrand.New(23))
	events, det := runKeylog(t, text, 24, emchannel.DefaultConfig(), sdr.CoilProbe)
	_ = events
	groups := GroupWords(det.Keystrokes, 0)
	score := ScoreWords(WordLengths(text), PredictedWordLengths(groups))
	if score.Recall < 0.85 {
		t.Fatalf("word recall = %v (%d/%d retrieved)", score.Recall, score.Retrieved, score.Truth)
	}
	if score.Precision < 0.5 {
		t.Fatalf("word precision = %v", score.Precision)
	}
}

func TestEndToEndDetectionAtDistance(t *testing.T) {
	chanCfg := emchannel.DefaultConfig()
	chanCfg.DistanceM = 2.0
	text := RandomWords(12, xrand.New(25))
	events, det := runKeylog(t, text, 26, chanCfg, sdr.LoopLA390)
	s := ScoreKeystrokes(events, det.Keystrokes, 30*sim.Millisecond)
	if s.TPR < 0.9 {
		t.Fatalf("2m TPR = %v (matched %d/%d)", s.TPR, s.Matched, s.Truth)
	}
}

func TestDetectEmptyCapture(t *testing.T) {
	cap := &sdr.Capture{IQ: make([]complex128, 16), SampleRate: 240e3}
	det := Detect(cap, noiseConfig())
	if len(det.Keystrokes) != 0 {
		t.Fatal("keystrokes from empty capture")
	}
}

func TestSessionHorizon(t *testing.T) {
	if h := SessionHorizon(nil); h != sim.Second {
		t.Fatalf("empty horizon = %v", h)
	}
	ev := []KeyEvent{{Press: sim.Second, Release: sim.Second + 80*sim.Millisecond}}
	if h := SessionHorizon(ev); h <= ev[0].Release {
		t.Fatalf("horizon %v not past last release", h)
	}
}

func TestBandTrackingFollowsDrift(t *testing.T) {
	// With strong carrier drift, a static band loses the spike over a
	// long session; the per-block tracker keeps following it.
	prof, _ := laptop.ByModel("Dell Precision 7290")
	prof.CarrierDriftHzPerS = 150 // ~6 kHz over a 40 s session

	run := func(track sim.Time) CharScore {
		sys := laptop.NewSystem(prof, 50)
		defer sys.Close()
		rng := xrand.New(51)
		text := RandomWords(25, xrand.New(52))
		events := Type(text, 200*sim.Millisecond, DefaultTypistConfig(), rng)
		horizon := SessionHorizon(events)
		Inject(sys.Kernel(), events, horizon, DefaultHandlingConfig(), rng.Fork())
		sys.Run(horizon)

		plan := keylogPlan(prof)
		field := sys.Emanations(horizon, plan)
		field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng.Fork())
		sdrCfg := sdr.DefaultConfig()
		sdrCfg.SampleRate = plan.SampleRate
		cap := sdr.Acquire(field, plan.CenterFreqHz, sdrCfg, rng.Fork())

		detCfg := DefaultDetectorConfig()
		detCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
		detCfg.TrackBlock = track
		det := Detect(cap, detCfg)
		return ScoreKeystrokes(events, det.Keystrokes, 30*sim.Millisecond)
	}

	tracked := run(2 * sim.Second)
	// A block longer than the session is one static band: the spike is
	// acquired once, over the whole capture's mean spectrum.
	static := run(600 * sim.Second)
	if tracked.TPR < 0.9 {
		t.Fatalf("tracker failed under drift: TPR %v", tracked.TPR)
	}
	if static.TPR > tracked.TPR-0.2 {
		t.Fatalf("static band suspiciously resilient to drift: static %v tracked %v "+
			"(the tracker should be the difference-maker)", static.TPR, tracked.TPR)
	}
}
