package main

import (
	"fmt"
	"runtime"
	"time"

	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/em"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// Seed offsets core derives its per-run random streams from. The traced
// chain below calls the layers core calls, in core's order, so it must
// draw the same streams; a divergence shows up as a traced result that
// differs from the untraced one.
const (
	payloadSeedOffset = 7919
	channelSeedOffset = 104729
	typistSeedOffset  = 500
	wordsSeedOffset   = 13
	faultSeedOffset   = 424243
)

// keylogPlan is core's narrowband keystroke tuning: the fundamental in a
// 240 kHz capture.
func keylogPlan(p laptop.Profile) laptop.EmanationPlan {
	return laptop.EmanationPlan{SampleRate: 240e3, CenterFreqHz: p.VRM.SwitchingFreqHz - 60e3, Harmonics: 1}
}

// outcome is what one op produced: a digest of its full result (traced
// and untraced runs of an op must agree on it), the units it carried and
// recovered, and the capture samples its receiver consumed.
type outcome struct {
	digest     uint64
	txBits     int // covert: transmitted on-air bits
	bitErrs    int // covert: substituted bits
	bitMatches int // covert: aligned matching bits
	keyTruth   int // keylog: typed keystrokes
	keyMatched int // keylog: detected keystrokes matched to truth
	samples    int // capture samples entering the receive chain
	err        error
}

// units counts covert bits and keystrokes together.
type units struct{ recovered, total int }

func (o outcome) units() units {
	return units{o.bitMatches + o.keyMatched, o.txBits + o.keyTruth}
}

// plus adds p's unit counts to o's.
func (o outcome) plus(p outcome) outcome {
	o.txBits += p.txBits
	o.bitErrs += p.bitErrs
	o.bitMatches += p.bitMatches
	o.keyTruth += p.keyTruth
	o.keyMatched += p.keyMatched
	return o
}

// batchOp is one closed-loop op of a batch workload.
type batchOp interface {
	// run executes the op through core's public entry point.
	run() outcome
	// runTraced executes the same op as a chain of per-layer calls,
	// recording one span per call under root.
	runTraced(t *tracer, op, root int, st *tracedState) outcome
	describe() string
}

// safely converts a panic in an op into a failed outcome.
func safely(f func() outcome) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return f()
}

func covertOutcome(m covert.Measurement, d *covert.Demod, rep faults.Report, samples int) outcome {
	return outcome{
		digest: digest(struct {
			M covert.Measurement
			D *covert.Demod
			F faults.Report
		}{m, d, rep}),
		txBits:     m.TxLen,
		bitErrs:    m.Substitutions,
		bitMatches: m.Matches,
		samples:    samples,
	}
}

func keylogOutcome(char keylog.CharScore, word keylog.WordScore, det *keylog.Detection, rep faults.Report, samples int) outcome {
	return outcome{
		digest: digest(struct {
			C keylog.CharScore
			W keylog.WordScore
			D *keylog.Detection
			F faults.Report
		}{char, word, det, rep}),
		keyTruth:   char.Truth,
		keyMatched: char.Matched,
		samples:    samples,
	}
}

func (o *covertOp) describe() string {
	return fmt.Sprintf("covert %s %s %s", o.shape, o.model, o.detail)
}

func (o *keylogOp) describe() string {
	return fmt.Sprintf("keylog %s %s %s", o.shape, o.model, o.detail)
}

func (o *covertOp) run() outcome {
	res := o.tb.RunCovert(o.cfg)
	horizon := covert.AirtimeEstimate(res.Run.Bits, res.TXCfg, o.tb.Profile.Kernel)
	n := em.Config{SampleRate: o.tb.Radio.SampleRate}.SampleCount(horizon)
	return covertOutcome(res.Measurement, res.Demod, res.Faults, n)
}

func (o *keylogOp) run() outcome {
	res := o.tb.RunKeylog(o.cfg)
	n := em.Config{SampleRate: keylogPlan(o.tb.Profile).SampleRate}.SampleCount(keylog.SessionHorizon(res.Events))
	return keylogOutcome(res.Char, res.Word, res.Detection, res.Faults, n)
}

// txState is a simulated transmitter: the pre-channel field and the
// ground truth. A group's variants replay it, as the trace cache does.
type txState struct {
	field   []complex128
	plan    laptop.EmanationPlan
	run     *covert.TxRun
	payload []byte
	txCfg   covert.TXConfig
}

// tracedState carries what a traced run keeps between ops: the last
// simulated transmitter, for its group's variants, and the per-layer
// work counts.
type tracedState struct {
	last txState
	layerCounts
}

// layerCounts accumulates the per-layer work counts of a traced run.
type layerCounts struct {
	emSamples, emAllocBytes    uint64
	channelSamples, sdrSamples int
	sdrClipped, faultEvents    int
	covertSamples, keySamples  int
	retries, resyncs           int
}

// allocBytes returns the bytes f allocated on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// faultEvents counts a report's injected events: drops, gain steps,
// saturation bursts, a truncation and a clock error.
func faultEvents(r faults.Report) int {
	n := r.Drops + r.GainSteps + r.Saturations
	if r.Truncated {
		n++
	}
	if r.MaxDriftPPM != 0 {
		n++
	}
	return n
}

// prepareTraced mirrors Testbed.PrepareCovert (transmitter, channel,
// SDR, faults) one public layer call at a time. A fresh op simulates
// its transmitter into st.last; a variant replays it.
func (o *covertOp) prepareTraced(t *tracer, op, root int, st *tracedState) (*sdr.Capture, faults.Report) {
	tb, cfg := o.tb, o.cfg
	if o.fresh {
		k := t.begin("kernel", op, root)
		sys := laptop.NewSystem(tb.Profile, tb.Seed)
		txCfg := covert.DefaultTXConfig(cfg.SleepPeriod)
		txCfg.Code = cfg.Code
		txCfg.InterleaveDepth = cfg.Interleave
		payload := xrand.New(tb.Seed + payloadSeedOffset).Bits(cfg.PayloadBits)
		frame := covert.EncodeFrame(payload, txCfg)
		run := covert.SpawnTransmitter(sys.Kernel(), frame, txCfg)
		horizon := covert.AirtimeEstimate(frame, txCfg, tb.Profile.Kernel)
		sys.Run(horizon)
		t.end(k)

		plan := sys.DefaultPlan()
		plan.SampleRate = tb.Radio.SampleRate
		var field []complex128
		e := t.begin("em", op, root)
		st.emAllocBytes += allocBytes(func() { field = sys.Emanations(horizon, plan) })
		t.end(e)
		sys.Close()
		st.emSamples += uint64(len(field))
		st.last = txState{field: field, plan: plan, run: run, payload: payload, txCfg: txCfg}
	}
	tx := &st.last

	rng := xrand.New(tb.Seed + channelSeedOffset)
	c := t.begin("emchannel", op, root)
	field := emchannel.Apply(tx.field, tx.plan.SampleRate, tb.Channel, rng)
	t.end(c)
	st.channelSamples += len(field)
	s := t.begin("sdr", op, root)
	cap := sdr.Acquire(field, tx.plan.CenterFreqHz, tb.Radio, rng.Fork())
	t.end(s)
	dsp.PutIQ(field)
	st.sdrSamples += len(cap.IQ)
	st.sdrClipped += cap.Clipped
	return cap, applyFaults(t, op, root, cap, cfg.Faults, tb.Seed, st)
}

// runTraced mirrors Testbed.RunCovert: prepareTraced, then
// demodulation and scoring.
func (o *covertOp) runTraced(t *tracer, op, root int, st *tracedState) outcome {
	cap, rep := o.prepareTraced(t, op, root, st)
	tx := &st.last
	rxCfg := o.tb.CovertRXConfig(o.cfg)
	d := t.begin("covert", op, root)
	demod := covert.Demodulate(cap, rxCfg)
	t.end(d)
	st.covertSamples += len(cap.IQ)
	st.retries += demod.Quality.Retries
	st.resyncs += demod.Quality.Resyncs
	cap.Recycle()

	sc := t.begin("score", op, root)
	m := covert.Measure(tx.run, demod, tx.txCfg, tx.payload)
	t.end(sc)
	return covertOutcome(m, demod, rep, len(tx.field))
}

func applyFaults(t *tracer, op, root int, cap *sdr.Capture, fc faults.Config, seed int64, st *tracedState) faults.Report {
	if !fc.Enabled() {
		return faults.Report{}
	}
	f := t.begin("faults", op, root)
	inj, err := faults.New(fc, seed+faultSeedOffset)
	if err != nil {
		panic(err) // the generators only emit valid fault configs
	}
	rep := inj.Apply(cap)
	t.end(f)
	st.faultEvents += faultEvents(rep)
	return rep
}

// keylogPrep is a traced keystroke session up to its capture.
type keylogPrep struct {
	cap     *sdr.Capture
	text    string
	events  []keylog.KeyEvent
	samples int
	faults  faults.Report
}

// prepareTraced mirrors Testbed.PrepareKeylog one public layer call at a
// time.
func (o *keylogOp) prepareTraced(t *tracer, op, root int, st *tracedState) keylogPrep {
	tb, cfg := o.tb, o.cfg
	text := cfg.Text
	if text == "" {
		text = keylog.RandomWords(cfg.Words, xrand.New(tb.Seed+wordsSeedOffset))
	}

	k := t.begin("kernel", op, root)
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	rng := xrand.New(tb.Seed + typistSeedOffset)
	events := keylog.Type(text, 200*sim.Millisecond, keylog.DefaultTypistConfig(), rng)
	horizon := keylog.SessionHorizon(events)
	keylog.Inject(sys.Kernel(), events, horizon, keylog.DefaultHandlingConfig(), rng.Fork())
	sys.Run(horizon)
	t.end(k)

	plan := keylogPlan(tb.Profile)
	var raw []complex128
	e := t.begin("em", op, root)
	st.emAllocBytes += allocBytes(func() { raw = sys.Emanations(horizon, plan) })
	t.end(e)
	sys.Close()
	st.emSamples += uint64(len(raw))
	samples := len(raw)

	c := t.begin("emchannel", op, root)
	field := emchannel.Apply(raw, plan.SampleRate, tb.Channel, rng.Fork())
	t.end(c)
	dsp.PutIQ(raw)
	st.channelSamples += len(field)
	radio := tb.Radio
	radio.SampleRate = plan.SampleRate
	s := t.begin("sdr", op, root)
	cap := sdr.Acquire(field, plan.CenterFreqHz, radio, rng.Fork())
	t.end(s)
	dsp.PutIQ(field)
	st.sdrSamples += len(cap.IQ)
	st.sdrClipped += cap.Clipped
	rep := applyFaults(t, op, root, cap, cfg.Faults, tb.Seed, st)
	return keylogPrep{cap: cap, text: text, events: events, samples: samples, faults: rep}
}

// detectorConfig is the detector config RunKeylog uses for this op.
func (o *keylogOp) detectorConfig() keylog.DetectorConfig {
	det := keylog.DefaultDetectorConfig()
	if o.cfg.Detector != nil {
		det = *o.cfg.Detector
	}
	det.ExpectedF0 = o.tb.Profile.VRM.SwitchingFreqHz
	det.GapAware = det.GapAware || o.cfg.GapAware
	return det
}

// runTraced mirrors Testbed.RunKeylog: prepareTraced, then detection and
// scoring.
func (o *keylogOp) runTraced(t *tracer, op, root int, st *tracedState) outcome {
	p := o.prepareTraced(t, op, root, st)
	d := t.begin("keylog", op, root)
	detection := keylog.Detect(p.cap, o.detectorConfig())
	t.end(d)
	st.keySamples += len(p.cap.IQ)
	p.cap.Recycle()

	sc := t.begin("score", op, root)
	groups := keylog.GroupWords(detection.Keystrokes, 0)
	char := keylog.ScoreKeystrokes(p.events, detection.Keystrokes, 30*sim.Millisecond)
	word := keylog.ScoreWords(keylog.WordLengths(p.text), keylog.PredictedWordLengths(groups))
	t.end(sc)
	return keylogOutcome(char, word, detection, p.faults, p.samples)
}

// opRecord is one finished op of a batch run.
type opRecord struct {
	latency time.Duration
	out     outcome
}

// runOps executes ops in a closed loop with one client and returns one
// record per op, its latency on clock. After each op, outside its
// latency, a full collection frees the garbage it made, so every op
// starts from a collected heap whatever ran before it.
func runOps(ops []batchOp, clock *stealClock) []opRecord {
	recs := make([]opRecord, len(ops))
	for i, op := range ops {
		start := time.Now()
		recs[i].out = safely(op.run)
		recs[i].latency = clock.ran(start, time.Now())
		runtime.GC()
	}
	return recs
}

// runOpsTraced runs each op untraced and as its traced chain (one root
// span per op), alternating which goes first, so both see the same
// memory and cache state on average. It returns the untraced and the
// traced records.
func runOpsTraced(ops []batchOp, t *tracer, st *tracedState) (plain, traced []opRecord) {
	plain = make([]opRecord, len(ops))
	traced = make([]opRecord, len(ops))
	for i, op := range ops {
		runPlain := func() {
			start := time.Now()
			plain[i].out = safely(op.run)
			plain[i].latency = time.Since(start)
			runtime.GC()
		}
		runTraced := func() {
			start := time.Now()
			root := t.begin("op", i, -1)
			traced[i].out = safely(func() outcome { return op.runTraced(t, i, root, st) })
			t.end(root)
			traced[i].latency = time.Since(start)
			runtime.GC()
		}
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
	}
	return plain, traced
}
