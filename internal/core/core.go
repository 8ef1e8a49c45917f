// Package core is the library's public face: it assembles a target
// laptop, a propagation path, and a receiver into a Testbed, and exposes
// one method per attack or experiment in the paper — covert-channel
// transfers (§IV), rate search at a BER target (Tables II/III),
// keystroke logging (§V), micro-benchmark spectrograms (Figs. 2 and 11),
// and the §III power-state ablation.
//
// Examples and command-line tools use only this package plus the option
// types it re-exports.
package core

import (
	"fmt"

	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/kernel"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/workload"
	"pmuleak/internal/xrand"
)

// Per-stage span histograms for the simulate → VRM/emit → EM-channel →
// SDR → demod/detect pipeline. One observation per stage per run —
// spans bracket whole pipeline stages, so their cost (two time.Now
// calls) vanishes next to the milliseconds each stage takes. Durations
// are wall-clock and naturally vary run to run; only the key set is
// deterministic.
var (
	stageSimulate = telemetry.NewHistogram("stage.simulate")
	stageEmit     = telemetry.NewHistogram("stage.emit")
	stageChannel  = telemetry.NewHistogram("stage.emchannel")
	stageSDR      = telemetry.NewHistogram("stage.sdr")
	stageFaults   = telemetry.NewHistogram("stage.faults")
	stageDemod    = telemetry.NewHistogram("stage.demod")
	stageDetect   = telemetry.NewHistogram("stage.detect")
)

// Aggregate scoring counters, recorded once per scored run in finish().
// These are pure functions of simulation outputs, so — like the other
// simulation-derived series — their totals are identical at every -jobs
// / cache / shard setting. bit_errors/tx_bits is the harness-wide
// covert BER and matched_keys/truth_keys the keystroke recall; the
// emreport regression gate reads both from persisted -metrics/artifact
// snapshots.
var (
	covertRuns    = telemetry.NewCounter("core.covert.runs")
	covertTxBits  = telemetry.NewCounter("core.covert.tx_bits")
	covertBitErrs = telemetry.NewCounter("core.covert.bit_errors")
	keylogRuns    = telemetry.NewCounter("core.keylog.runs")
	keylogTruth   = telemetry.NewCounter("core.keylog.truth_keys")
	keylogMatched = telemetry.NewCounter("core.keylog.matched_keys")
)

// faultSeedOffset derives the fault injector's stream from the testbed
// seed, distinct from the channel (104729), receiver (500), and typist
// (13) offsets so enabling faults never perturbs those streams.
const faultSeedOffset = 424243

// Testbed is one measurement setup: a target laptop, the EM path to the
// attacker's antenna, and the receiver. Construct with NewTestbed.
type Testbed struct {
	Profile laptop.Profile
	Channel emchannel.Config
	Radio   sdr.Config
	Seed    int64
}

// Option mutates a Testbed during construction.
type Option func(*Testbed)

// WithLaptop selects the target device (default: the Dell Inspiron the
// paper uses for its figures).
func WithLaptop(p laptop.Profile) Option {
	return func(tb *Testbed) { tb.Profile = p }
}

// WithDistance places the antenna d meters from the laptop's VRM.
func WithDistance(d float64) Option {
	return func(tb *Testbed) { tb.Channel.DistanceM = d }
}

// WithWall inserts a wall with the given penetration loss (power dB)
// into the path — the paper's 35 cm structural wall is ~15 dB at these
// frequencies.
func WithWall(lossDB float64) Option {
	return func(tb *Testbed) { tb.Channel.WallLossDB = lossDB }
}

// WithAntenna selects the pickup device. Distance work needs
// sdr.LoopLA390; the near-field default is sdr.CoilProbe.
func WithAntenna(a sdr.Antenna) Option {
	return func(tb *Testbed) { tb.Radio.Antenna = a }
}

// WithInterference adds environmental EM sources to the path.
func WithInterference(in ...emchannel.Interferer) Option {
	return func(tb *Testbed) { tb.Channel.Interferers = append(tb.Channel.Interferers, in...) }
}

// WithNoise overrides the environmental noise floor (per-component
// standard deviation at the antenna).
func WithNoise(sigma float64) Option {
	return func(tb *Testbed) { tb.Channel.NoiseSigma = sigma }
}

// WithSeed sets the experiment seed; every stochastic element derives
// from it, so equal seeds reproduce bit-exact results.
func WithSeed(seed int64) Option {
	return func(tb *Testbed) { tb.Seed = seed }
}

// NewTestbed builds the paper's default setup: Dell Inspiron target,
// coil probe at 10 cm, RTL-SDR at 2.4 MS/s.
func NewTestbed(opts ...Option) *Testbed {
	tb := &Testbed{
		Profile: laptop.Reference(),
		Channel: emchannel.DefaultConfig(),
		Radio:   sdr.DefaultConfig(),
		Seed:    1,
	}
	for _, opt := range opts {
		opt(tb)
	}
	return tb
}

// Validate reports configuration errors in the assembled testbed — the
// checks of emchannel.NewPath and sdr.NewFrontend that a run would
// otherwise panic on deep inside. Command-line tools call it right
// after flag parsing so a bad -distance or -noise exits with a message
// instead of a stack trace.
func (tb *Testbed) Validate() error {
	if err := tb.Channel.Validate(); err != nil {
		return err
	}
	return tb.Radio.Validate()
}

// NLoSOffice returns the Fig. 10 setup: loop antenna 1.5 m away behind a
// 35 cm wall, with the printer and refrigerator interferers present.
func NLoSOffice(seed int64) *Testbed {
	return NewTestbed(
		WithDistance(1.5),
		WithWall(15),
		WithAntenna(sdr.LoopLA390),
		WithInterference(
			emchannel.OfficePrinter(0.002),
			emchannel.Refrigerator(0.0015),
			emchannel.OfficeBroadband(0.001),
		),
		WithSeed(seed),
	)
}

// CovertConfig parameterizes one covert-channel run.
type CovertConfig struct {
	// SleepPeriod is the transmitter's SLEEP_PERIOD; zero uses the
	// profile's default (the paper's per-OS choice).
	SleepPeriod sim.Time
	// PayloadBits sets the random payload size when Payload is nil.
	PayloadBits int
	// Payload transmits specific bits instead of a random payload.
	Payload []byte
	// Code selects the error-control code. The zero value is
	// covert.CodeNone (raw bits); set covert.CodeHamming74 for the
	// paper's Hamming(7,4).
	Code covert.Coding
	// Background adds the §IV-C2 resource-intensive background
	// process on the target.
	Background bool
	// RXHarmonics overrides the receiver's Eq. (1) harmonic count
	// (|S|); zero keeps the default of two.
	RXHarmonics int
	// Interleave sets the transmitter's block-interleave depth
	// (values > 1 spread burst errors across codewords).
	Interleave int
	// Faults injects acquisition faults (USB overrun drops, clock ppm
	// error, AGC gain steps, saturation bursts, truncation) into the
	// finished capture, before the demodulator. The zero value
	// injects nothing. The fault schedule derives from the testbed
	// seed, so it is reproducible and independent of -jobs; it is
	// receiver-side, so transmitter-trace cache hits are unaffected.
	Faults faults.Config
	// RXResync enables the receiver's per-batch period re-estimation
	// (covert.RXConfig.Resync).
	RXResync bool
	// RXCarrierRetries bounds the receiver's carrier re-acquisition
	// retries (covert.RXConfig.CarrierRetries).
	RXCarrierRetries int
}

func (c *CovertConfig) fill(tb *Testbed) {
	if c.SleepPeriod == 0 {
		c.SleepPeriod = tb.Profile.DefaultSleepPeriod
	}
	if c.PayloadBits == 0 {
		c.PayloadBits = 256
	}
}

// CovertResult bundles a covert run's metrics with the receiver's
// intermediate traces (the paper's Figs. 4-7 are plots of these).
type CovertResult struct {
	covert.Measurement
	Run     *covert.TxRun
	Demod   *covert.Demod
	Payload []byte
	TXCfg   covert.TXConfig
	// Faults is the realized fault schedule (zero when no faults were
	// configured).
	Faults faults.Report
}

// RunCovert executes one full covert transfer: transmitter process on
// the simulated laptop, EM emission, propagation, SDR capture, and the
// batch-processing demodulator.
//
// The transmitter half (kernel simulation through EM synthesis) reads
// only the laptop profile, the seed, the radio sample rate, and the
// transmitter-side config fields — never the channel or receiver
// config — so it is memoized in a process-wide cache: sweeps that vary
// only receiver-side parameters (distance, walls, antennas, noise,
// harmonic count) synthesize the pulse train once and replay it. A
// replay gives the bytes a fresh simulation would, because the
// receiver's random stream is independently seeded. The result's Run,
// Payload, and TXCfg fields are shared with other results of the same
// transmitter configuration — treat them as read-only.
func (tb *Testbed) RunCovert(cfg CovertConfig) *CovertResult {
	p := tb.PrepareCovert(cfg)
	demodSpan := stageDemod.Start()
	demod := covert.Demodulate(p.Cap, p.RXCfg)
	demodSpan.End()
	res := p.finish(demod)
	// Demodulate keeps no reference to the raw samples; recycle them.
	p.Cap.Recycle()
	return res
}

// PreparedCovert is the receiver-side input of one covert run: the
// capture exactly as the demodulator would see it (faults applied) plus
// the receiver config RunCovert would use and the transmitter-side
// ground truth needed to score the decode. It is the seam between
// capture production and demodulation that lets RunCovert
// (covert.Demodulate) and the streaming daemon (stream.CovertReceiver)
// consume the identical capture. The caller owns Cap and must Recycle
// it; Run, Payload, and TXCfg come from the shared transmitter trace —
// treat them as read-only.
type PreparedCovert struct {
	Cap     *sdr.Capture
	RXCfg   covert.RXConfig
	Run     *covert.TxRun
	Payload []byte
	TXCfg   covert.TXConfig
	Faults  faults.Report
}

// PrepareCovert runs the transmitter half, the EM channel, the SDR
// capture, and fault injection — everything RunCovert does before
// demodulation — and returns the assembled receiver-side input.
func (tb *Testbed) PrepareCovert(cfg CovertConfig) *PreparedCovert {
	cfg.fill(tb)
	tr := tb.transmitterTrace(cfg)

	cap, sp := tb.synthesize(emission{plan: tr.plan, field: tr.field},
		xrand.New(tb.Seed+channelSeedOffset), false)
	stageChannel.Observe(sp.channel)
	stageSDR.Observe(sp.radio)

	var faultRep faults.Report
	if cfg.Faults.Enabled() {
		faultSpan := stageFaults.Start()
		faultRep = faults.MustNew(cfg.Faults, tb.Seed+faultSeedOffset).Apply(cap)
		faultSpan.End()
	}

	return &PreparedCovert{
		Cap:     cap,
		RXCfg:   tb.CovertRXConfig(cfg),
		Run:     tr.run,
		Payload: tr.payload,
		TXCfg:   tr.txCfg,
		Faults:  faultRep,
	}
}

// CovertRXConfig returns the receiver config RunCovert hands the
// demodulator for this covert config — pure arithmetic over the profile
// and the transmitter settings, no simulation. PrepareCovert builds its
// RXCfg here, so the two cannot drift apart. The bit period depends
// only on the loop and sleep periods, which the transmitter trace never
// changes, so the default TX config stands in for the simulated one.
func (tb *Testbed) CovertRXConfig(cfg CovertConfig) covert.RXConfig {
	cfg.fill(tb)
	txCfg := covert.DefaultTXConfig(cfg.SleepPeriod)
	rxCfg := covert.DefaultRXConfig()
	rxCfg.ExpectedF0 = tb.Profile.VRM.SwitchingFreqHz
	rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
	rxCfg.Resync = cfg.RXResync
	rxCfg.CarrierRetries = cfg.RXCarrierRetries
	if cfg.RXHarmonics > 0 {
		rxCfg.NumHarmonics = cfg.RXHarmonics
	}
	return rxCfg
}

// Finish scores a demod produced outside RunCovert — typically a
// stream.CovertReceiver's Finalize output, as in `emscope serve` —
// against this prepared run's ground truth.
func (p *PreparedCovert) Finish(demod *covert.Demod) *CovertResult { return p.finish(demod) }

// finish scores a demod against the prepared run's ground truth.
func (p *PreparedCovert) finish(demod *covert.Demod) *CovertResult {
	m := covert.Measure(p.Run, demod, p.TXCfg, p.Payload)
	covertRuns.Inc()
	covertTxBits.Add(uint64(m.TxLen))
	covertBitErrs.Add(uint64(m.Substitutions))
	return &CovertResult{
		Measurement: m,
		Run:         p.Run,
		Demod:       demod,
		Payload:     p.Payload,
		TXCfg:       p.TXCfg,
		Faults:      p.Faults,
	}
}

// spawnBackgroundHog runs the §IV-C2 resource-intensive background
// activity. The paper observes the OS schedules such work as short
// bursts, most smaller than one sleep/active period (harmless), with
// occasional longer ones that corrupt a bit and force the transmitter
// to slow down modestly (~15% TR).
func spawnBackgroundHog(k *kernel.Kernel, seed int64) {
	rng := xrand.New(seed)
	k.Spawn("background-hog", func(p *kernel.Proc) {
		for {
			burst := sim.Time(rng.Uniform(float64(8*sim.Microsecond), float64(40*sim.Microsecond)))
			if rng.Bool(0.12) {
				// Occasional long burst spanning a whole bit period.
				burst = sim.Time(rng.Uniform(float64(250*sim.Microsecond), float64(500*sim.Microsecond)))
			}
			p.Busy(burst)
			p.Sleep(sim.Time(rng.Uniform(float64(2*sim.Millisecond), float64(6*sim.Millisecond))))
		}
	})
}

// RateSearch finds the highest transmission rate whose channel error
// rate stays at or below targetBER by lengthening the sleep period in
// geometric steps — the procedure behind Tables II and III. It returns
// the passing run (or the slowest attempted run if none passes, with
// ok=false).
func (tb *Testbed) RateSearch(targetBER float64, cfg CovertConfig) (*CovertResult, bool) {
	cfg.fill(tb)
	base := cfg.SleepPeriod
	var last *CovertResult
	for scale := 1.0; scale <= 12; scale *= 1.3 {
		attempt := cfg
		attempt.SleepPeriod = sim.Time(float64(base) * scale)
		res := tb.RunCovert(attempt)
		last = res
		if res.ErrorRate() <= targetBER && len(res.Demod.Bits) > 0 {
			return res, true
		}
	}
	return last, false
}

// KeylogConfig parameterizes a §V keystroke-logging run.
type KeylogConfig struct {
	// Text is typed verbatim; when empty, Words random pseudo-words
	// are generated.
	Text  string
	Words int
	// Typist and Handling override the human and host models.
	Typist   *keylog.TypistConfig
	Handling *keylog.HandlingConfig
	// Detector overrides the receiver's detector settings (for
	// example a finer STFT window when keystroke timing precision
	// matters more than runtime).
	Detector *keylog.DetectorConfig
	// Faults injects acquisition faults into the finished capture,
	// before the detector (see CovertConfig.Faults).
	Faults faults.Config
	// GapAware turns on the detector's per-block threshold
	// normalization (keylog.DetectorConfig.GapAware) without having to
	// override the whole Detector config.
	GapAware bool
}

// KeylogResult carries the Table IV metrics plus everything needed to
// render Fig. 11.
type KeylogResult struct {
	Text      string
	Events    []keylog.KeyEvent
	Detection *keylog.Detection
	Char      keylog.CharScore
	Word      keylog.WordScore
	// Faults is the realized fault schedule (zero when no faults were
	// configured).
	Faults faults.Report
}

// keylogPlan is the narrowband tuning used for keystroke detection: the
// fundamental spike in a 240 kHz capture, which keeps multi-second
// captures tractable.
func (tb *Testbed) keylogPlan() laptop.EmanationPlan {
	return laptop.EmanationPlan{
		SampleRate:   240e3,
		CenterFreqHz: tb.Profile.VRM.SwitchingFreqHz - 60e3,
		Harmonics:    1,
	}
}

// RunKeylog executes a full keystroke-logging attack.
func (tb *Testbed) RunKeylog(cfg KeylogConfig) *KeylogResult {
	p := tb.PrepareKeylog(cfg)
	detSpan := stageDetect.Start()
	det := keylog.Detect(p.Cap, p.DetCfg)
	detSpan.End()
	p.Cap.Recycle()
	return p.finish(det)
}

// PreparedKeylog is the receiver-side input of one keystroke-logging
// run: the capture as the detector would see it (faults applied), the
// detector config RunKeylog would use, and the typed ground truth for
// scoring. Like PreparedCovert, it is the seam that lets the batch
// detector and the streaming detector consume the identical capture.
// The caller owns Cap and must Recycle it.
type PreparedKeylog struct {
	Cap    *sdr.Capture
	DetCfg keylog.DetectorConfig
	Text   string
	Events []keylog.KeyEvent
	Faults faults.Report
}

// PrepareKeylog runs the typing simulation, emanation synthesis, EM
// channel, SDR capture, and fault injection — everything RunKeylog does
// before detection — and returns the assembled receiver-side input.
func (tb *Testbed) PrepareKeylog(cfg KeylogConfig) *PreparedKeylog {
	text := cfg.Text
	if text == "" {
		n := cfg.Words
		if n == 0 {
			n = 50
		}
		text = keylog.RandomWords(n, xrand.New(tb.Seed+13))
	}
	typist := keylog.DefaultTypistConfig()
	if cfg.Typist != nil {
		typist = *cfg.Typist
	}
	handling := keylog.DefaultHandlingConfig()
	if cfg.Handling != nil {
		handling = *cfg.Handling
	}

	simSpan := stageSimulate.Start()
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()
	rng := xrand.New(tb.Seed + 500)
	events := keylog.Type(text, 200*sim.Millisecond, typist, rng)
	horizon := keylog.SessionHorizon(events)
	keylog.Inject(sys.Kernel(), events, horizon, handling, rng.Fork())
	sys.Run(horizon)
	simSpan.End()

	cap, sp := tb.synthesize(emission{plan: tb.keylogPlan(), sys: sys, horizon: horizon}, rng, true)
	stageEmit.Observe(sp.emit)
	stageChannel.Observe(sp.channel)
	stageSDR.Observe(sp.radio)

	var faultRep faults.Report
	if cfg.Faults.Enabled() {
		faultSpan := stageFaults.Start()
		faultRep = faults.MustNew(cfg.Faults, tb.Seed+faultSeedOffset).Apply(cap)
		faultSpan.End()
	}

	detCfg := keylog.DefaultDetectorConfig()
	if cfg.Detector != nil {
		detCfg = *cfg.Detector
	}
	detCfg.ExpectedF0 = tb.Profile.VRM.SwitchingFreqHz
	if cfg.GapAware {
		detCfg.GapAware = true
	}
	return &PreparedKeylog{
		Cap:    cap,
		DetCfg: detCfg,
		Text:   text,
		Events: events,
		Faults: faultRep,
	}
}

// Finish scores a detection produced outside RunKeylog — typically a
// stream.KeylogDetector's Finalize output — against this prepared
// run's ground truth.
func (p *PreparedKeylog) Finish(det *keylog.Detection) *KeylogResult { return p.finish(det) }

// finish scores a detection against the prepared run's ground truth.
func (p *PreparedKeylog) finish(det *keylog.Detection) *KeylogResult {
	groups := keylog.GroupWords(det.Keystrokes, 0)
	char := keylog.ScoreKeystrokes(p.Events, det.Keystrokes, 30*sim.Millisecond)
	keylogRuns.Inc()
	keylogTruth.Add(uint64(char.Truth))
	keylogMatched.Add(uint64(char.Matched))
	return &KeylogResult{
		Text:      p.Text,
		Events:    p.Events,
		Detection: det,
		Char:      char,
		Word:      keylog.ScoreWords(keylog.WordLengths(p.Text), keylog.PredictedWordLengths(groups)),
		Faults:    p.Faults,
	}
}

// MicrobenchSpectrogram reproduces Fig. 2: the Fig. 1 micro-benchmark
// (t1 of activity, t2 of idleness, repeated) rendered as a spectrogram
// of the received emanations.
func (tb *Testbed) MicrobenchSpectrogram(active, idle sim.Time, cycles int) *dsp.Spectrogram {
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()
	workload.Microbench(sys.Kernel(), active, idle, cycles)
	horizon := sim.Time(float64(active+idle)*float64(cycles)*1.3) + 2*sim.Millisecond
	sys.Run(horizon)
	cap := tb.Capture(sys, horizon, sys.DefaultPlan())
	s := dsp.STFT(cap.IQ, 1024, 512, dsp.Hann(1024), cap.SampleRate)
	cap.Recycle()
	return s
}

// KeylogSpectrogram renders the Fig. 11 view: the spectrogram of the
// emanations while text is typed, plus the ground-truth key events.
func (tb *Testbed) KeylogSpectrogram(text string) (*dsp.Spectrogram, []keylog.KeyEvent) {
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()
	rng := xrand.New(tb.Seed + 500)
	events := keylog.Type(text, 200*sim.Millisecond, keylog.DefaultTypistConfig(), rng)
	horizon := keylog.SessionHorizon(events)
	keylog.Inject(sys.Kernel(), events, horizon, keylog.DefaultHandlingConfig(), rng.Fork())
	sys.Run(horizon)
	cap, _ := tb.synthesize(emission{plan: tb.keylogPlan(), sys: sys, horizon: horizon}, rng, true)
	fft := 2048
	s := dsp.STFT(cap.IQ, fft, fft, dsp.Hann(fft), cap.SampleRate)
	cap.Recycle()
	return s, events
}

// AblationRow is one configuration of the §III P/C-state experiment.
type AblationRow struct {
	Name              string
	PStates, CStates  bool
	SpikeOnOffRatio   float64 // band energy, active vs idle phases
	MeanSpikeStrength float64 // absolute band energy (idle phases)
}

// StateAblation reproduces §III: the micro-benchmark runs under the
// four BIOS combinations of P-/C-state enablement, and the band energy
// at the VRM fundamental is compared between active and idle phases.
// With either mechanism enabled the ratio is large (the signal exists);
// with both disabled it collapses to ~1 while the idle-phase emission
// stays strong.
func (tb *Testbed) StateAblation(active, idle sim.Time, cycles int) []AblationRow {
	combos := []struct {
		name string
		p, c bool
	}{
		{"P+C enabled", true, true},
		{"C-states only", false, true},
		{"P-states only", true, false},
		{"both disabled", false, false},
	}
	// The four BIOS combinations are independent cells — each builds its
	// own system and random streams from tb.Seed — so they run on the
	// sweep worker pool.
	return sweep.Map(len(combos), func(i int) AblationRow {
		combo := combos[i]
		prof := tb.Profile
		prof.Power.PStatesEnabled = combo.p
		prof.Power.CStatesEnabled = combo.c

		sys := laptop.NewSystem(prof, tb.Seed)
		workload.Microbench(sys.Kernel(), active, idle, cycles)
		horizon := sim.Time(float64(active+idle) * float64(cycles) * 1.2)
		sys.Run(horizon)
		plan := sys.DefaultPlan()
		cap := tb.Capture(sys, horizon, plan)
		sys.Close()

		s := dsp.STFT(cap.IQ, 1024, 512, dsp.Hann(1024), cap.SampleRate)
		cap.Recycle()
		col := s.Column(s.Bin(prof.VRM.SwitchingFreqHz - plan.CenterFreqHz))
		hi := dsp.Quantile(col, 0.9)
		lo := dsp.Quantile(col, 0.1)
		if lo <= 0 {
			lo = 1e-12
		}
		return AblationRow{
			Name:              combo.name,
			PStates:           combo.p,
			CStates:           combo.c,
			SpikeOnOffRatio:   hi / lo,
			MeanSpikeStrength: lo,
		}
	})
}

// ActivityDuration measures how long the processor stayed busy for a
// single workload burst, as seen purely from the EM side channel — the
// primitive behind the attack model's application/website
// fingerprinting (§III, attack model ii-b).
func (tb *Testbed) ActivityDuration(work sim.Time) (float64, error) {
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()
	start := 20 * sim.Millisecond
	sys.Kernel().InjectBurst(start, work)
	horizon := start + work + 40*sim.Millisecond
	sys.Run(horizon)
	cap := tb.Capture(sys, horizon, tb.keylogPlan())

	detCfg := keylog.DefaultDetectorConfig()
	detCfg.ExpectedF0 = tb.Profile.VRM.SwitchingFreqHz
	detCfg.MaxKeystroke = work + 500*sim.Millisecond
	detCfg.MinKeystroke = 5 * sim.Millisecond
	det := keylog.Detect(cap, detCfg)
	cap.Recycle()
	if len(det.Keystrokes) == 0 {
		return 0, fmt.Errorf("core: no activity burst detected")
	}
	// The longest detection is the workload burst.
	best := det.Keystrokes[0]
	for _, k := range det.Keystrokes[1:] {
		if k.Duration() > best.Duration() {
			best = k
		}
	}
	return best.Duration(), nil
}
