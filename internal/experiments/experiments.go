// Package experiments contains one runner per table and figure of the
// paper's evaluation. The command-line harness (cmd/paperbench) and the
// benchmark suite (bench_test.go) both drive these functions, so the
// numbers they print are produced by exactly one code path.
package experiments

import (
	"fmt"
	"strings"

	"pmuleak/internal/baselines"
	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/defense"
	"pmuleak/internal/dsp"
	"pmuleak/internal/ecc"
	"pmuleak/internal/fingerprint"
	"pmuleak/internal/kernel"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// expSpan opens the per-runner telemetry span: one histogram per
// experiment under experiment.<name>, created lazily so the snapshot's
// key set reflects exactly the runners that executed (paperbench -only
// narrows it). Runners that reuse other runners (Fig9 calls TableII)
// record both spans, nested.
func expSpan(name string) telemetry.Span {
	return telemetry.NewHistogram("experiment." + name).Start()
}

// Scale trades experiment fidelity for runtime. Tests and smoke runs
// use Quick; the paperbench binary defaults to Full.
type Scale struct {
	PayloadBits int   // covert payload per run
	Runs        int   // averaging runs per configuration
	Words       int   // typed words for keylogging
	Cells       int64 // fleet-campaign population size
}

// Quick is the CI-friendly scale. The fleet population stays at a full
// million cells even here: campaign cells run through the anchored
// surrogate at tens of millions per second, so the population is not
// where the quick/full time difference lives.
var Quick = Scale{PayloadBits: 96, Runs: 2, Words: 15, Cells: 1 << 20}

// Full approximates the paper's measurement sizes (the paper types 1000
// words and averages five runs).
var Full = Scale{PayloadBits: 512, Runs: 5, Words: 120, Cells: 4 << 20}

// ---------------------------------------------------------------------
// Fig. 2 — spectrogram of the active/idle micro-benchmark.

// Fig2Result summarizes the spectrogram contrast.
type Fig2Result struct {
	Spectrogram     *dsp.Spectrogram
	FundamentalKHz  float64
	SpikeOnOffRatio float64 // strong-phase vs weak-phase band energy
	HarmonicRatio   float64 // fundamental vs first-harmonic strength
}

// Fig2 runs the Fig. 1 micro-benchmark and measures the alternating
// spike pattern of Fig. 2.
func Fig2(seed int64) Fig2Result {
	defer expSpan("fig2").End()
	tb := core.NewTestbed(core.WithSeed(seed))
	s := tb.MicrobenchSpectrogram(2*sim.Millisecond, 2*sim.Millisecond, 20)
	f0 := tb.Profile.VRM.SwitchingFreqHz
	fund := s.Column(s.Bin(f0 - 1.5*f0))
	harm := s.Column(s.Bin(2*f0 - 1.5*f0))
	hi := dsp.Quantile(fund, 0.9)
	lo := dsp.Quantile(fund, 0.1)
	if lo <= 0 {
		lo = 1e-12
	}
	hh := dsp.Quantile(harm, 0.9)
	res := Fig2Result{
		Spectrogram:     s,
		FundamentalKHz:  f0 / 1e3,
		SpikeOnOffRatio: hi / lo,
	}
	if hh > 0 {
		res.HarmonicRatio = hi / hh
	}
	return res
}

// ---------------------------------------------------------------------
// §III — power-state ablation.

// Sec3Ablation reruns the micro-benchmark under the four P-/C-state
// BIOS combinations.
func Sec3Ablation(seed int64) []core.AblationRow {
	defer expSpan("sec3").End()
	tb := core.NewTestbed(core.WithSeed(seed))
	return tb.StateAblation(2*sim.Millisecond, 2*sim.Millisecond, 15)
}

// ---------------------------------------------------------------------
// Figs. 4-7 — receiver pipeline internals on one near-field run.

// PipelineResult carries the statistics the paper plots in Figs. 4-7.
type PipelineResult struct {
	Res *core.CovertResult
	// Fig. 4: the acquisition trace exists and rises at bit starts.
	AcquisitionLen int
	// Fig. 5: edge-detection peak count vs transmitted bits.
	DetectedStarts int
	TxBits         int
	// Fig. 6: pulse-width distribution.
	MedianPulseWidth float64 // seconds
	RayleighSigma    float64
	PulseWidthSkew   float64
	// Fig. 7: power histogram modes and selected threshold.
	PowerModeLow, PowerModeHigh float64
	Threshold                   float64
}

// Pipeline runs one near-field transfer and extracts the Figs. 4-7
// statistics from the receiver's intermediate traces.
func Pipeline(seed int64, scale Scale) PipelineResult {
	defer expSpan("pipeline").End()
	tb := core.NewTestbed(core.WithSeed(seed))
	res := tb.RunCovert(core.CovertConfig{PayloadBits: scale.PayloadBits})
	d := res.Demod
	out := PipelineResult{
		Res:            res,
		AcquisitionLen: len(d.Y),
		DetectedStarts: len(d.Starts),
		TxBits:         len(res.Run.Bits),
		Threshold:      d.Threshold,
	}
	if len(d.RawDistances) > 0 {
		out.MedianPulseWidth = dsp.Median(d.RawDistances)
		// Fit the Rayleigh to the overshoot beyond the minimum, as the
		// paper's Fig. 6 distribution is offset from zero.
		min, _ := dsp.Min(d.RawDistances)
		excess := make([]float64, len(d.RawDistances))
		for i, v := range d.RawDistances {
			excess[i] = v - min
		}
		out.RayleighSigma = dsp.RayleighFit(excess)
		out.PulseWidthSkew = dsp.Skewness(d.RawDistances)
	}
	if lo, hi, ok := dsp.NewHistogram(d.Powers, 48).Smoothed(3).Modes(); ok {
		out.PowerModeLow, out.PowerModeHigh = lo, hi
	}
	return out
}

// ---------------------------------------------------------------------
// Fig. 8 / §IV-B4 — deletion and insertion under interrupt load.

// Fig8Result reports error attribution with aggressive interrupts.
type Fig8Result struct {
	Quiet  covert.Measurement
	Loaded covert.Measurement
}

// Fig8 measures insertion/deletion behaviour with the background hog
// running (the paper's "other system activity" scenario).
func Fig8(seed int64, scale Scale) Fig8Result {
	defer expSpan("fig8").End()
	cells := sweep.Map(2, func(i int) covert.Measurement {
		tb := core.NewTestbed(core.WithSeed(seed))
		return tb.RunCovert(core.CovertConfig{
			PayloadBits: scale.PayloadBits, Background: i == 1}).Measurement
	})
	return Fig8Result{Quiet: cells[0], Loaded: cells[1]}
}

// ---------------------------------------------------------------------
// Table II — near-field results across the six laptops.

// TableIIRow is one laptop's measurement.
type TableIIRow struct {
	Model string
	OS    string
	BER   float64
	TR    float64
	IP    float64
	DP    float64
}

// String renders the row in the table's format.
func (r TableIIRow) String() string {
	return fmt.Sprintf("%-22s %-8s BER=%.1e TR=%4.0f IP=%.1e DP=%.1e",
		r.Model, r.OS, r.BER, r.TR, r.IP, r.DP)
}

// TableII measures the near-field covert channel on every Table I
// laptop, averaging scale.Runs runs. The laptop×run grid is flattened
// onto the sweep pool — every cell has its own seed — and each laptop's
// average is reduced in run order, so the table is bit-identical to the
// old serial loop.
func TableII(seed int64, scale Scale) []TableIIRow {
	defer expSpan("table2").End()
	profiles := laptop.Profiles()
	cells := sweep.Map(len(profiles)*scale.Runs, func(c int) covert.Measurement {
		i, r := c/scale.Runs, c%scale.Runs
		tb := core.NewTestbed(
			core.WithLaptop(profiles[i]),
			core.WithSeed(seed+int64(i*100+r)),
		)
		return tb.RunCovert(core.CovertConfig{PayloadBits: scale.PayloadBits}).Measurement
	})
	rows := make([]TableIIRow, 0, len(profiles))
	for i, prof := range profiles {
		avg := covert.Average(cells[i*scale.Runs : (i+1)*scale.Runs])
		rows = append(rows, TableIIRow{
			Model: prof.Model,
			OS:    prof.OS().String(),
			BER:   avg.BER(),
			TR:    avg.TransmitRate,
			IP:    avg.InsertionProb(),
			DP:    avg.DeletionProb(),
		})
	}
	return rows
}

// BackgroundLoadTRDrop measures the §IV-C2 effect: the TR reduction
// needed to hold the near-field error rate under load, averaged over
// several independent runs (rate searches on single frames are noisy).
func BackgroundLoadTRDrop(seed int64, scale Scale) (quiet, loaded float64) {
	defer expSpan("background").End()
	const target = 0.012
	const runs = 3
	type pair struct{ q, l float64 }
	cells := sweep.Map(runs, func(r int) pair {
		tb := core.NewTestbed(core.WithSeed(seed + int64(r)))
		q, _ := tb.RateSearch(target, core.CovertConfig{PayloadBits: scale.PayloadBits})
		l, _ := tb.RateSearch(target, core.CovertConfig{
			PayloadBits: scale.PayloadBits, Background: true})
		return pair{q.TransmitRate, l.TransmitRate}
	})
	// Sum in run order: float addition is not associative, and the
	// harness requires jobs=1 and jobs=N to agree bit for bit.
	for _, c := range cells {
		quiet += c.q
		loaded += c.l
	}
	return quiet / runs, loaded / runs
}

// ---------------------------------------------------------------------
// Fig. 9 — transmission-rate comparison with prior work.

// Fig9Result is the complete comparison.
type Fig9Result struct {
	Baselines []baselines.Row
	Proposed  float64 // best Table II rate, bits/s
}

// Speedup returns the proposed/best-baseline rate ratio.
func (f Fig9Result) Speedup() float64 {
	var best float64
	for _, b := range f.Baselines {
		if b.Rate > best {
			best = b.Rate
		}
	}
	if best == 0 {
		return 0
	}
	return f.Proposed / best
}

// Fig9 evaluates the seven baseline channels at a 1% BER target and
// compares them with the proposed channel's achieved rate. As in the
// paper, the proposed number is the fastest laptop's near-field TR from
// the Table II measurement (the MacBooks, which run at ~3 kbps with a
// percent-level BER).
func Fig9(seed int64, scale Scale) Fig9Result {
	defer expSpan("fig9").End()
	const targetBER = 1e-2
	rows := baselines.Compare(targetBER, 4000, seed)
	var proposed float64
	for _, r := range TableII(seed, scale) {
		if r.TR > proposed {
			proposed = r.TR
		}
	}
	return Fig9Result{Baselines: rows, Proposed: proposed}
}

// ---------------------------------------------------------------------
// Table III — line-of-sight distance sweep.

// TableIIIRow is one distance's measurement.
type TableIIIRow struct {
	DistanceM float64
	BER       float64
	TR        float64
	IP        float64
	DP        float64
	OK        bool
}

// String renders the row.
func (r TableIIIRow) String() string {
	return fmt.Sprintf("%.1fm  BER=%.1e TR=%4.0f IP=%.1e DP=%.1e",
		r.DistanceM, r.BER, r.TR, r.IP, r.DP)
}

// TableIII sweeps the loop antenna over the paper's distances, lowering
// the rate at each distance until the error rate meets the target.
func TableIII(seed int64, scale Scale) []TableIIIRow {
	defer expSpan("table3").End()
	distances := []float64{1.0, 1.5, 2.5}
	return sweep.Map(len(distances), func(i int) TableIIIRow {
		tb := core.NewTestbed(
			core.WithDistance(distances[i]),
			core.WithAntenna(sdr.LoopLA390),
			core.WithSeed(seed+int64(i)),
		)
		res, ok := tb.RateSearch(1.5e-2, core.CovertConfig{PayloadBits: scale.PayloadBits})
		return TableIIIRow{
			DistanceM: distances[i],
			BER:       res.BER(),
			TR:        res.TransmitRate,
			IP:        res.InsertionProb(),
			DP:        res.DeletionProb(),
			OK:        ok,
		}
	})
}

// ---------------------------------------------------------------------
// §IV-C3 — non-line-of-sight (through the wall).

// NLoS runs the Fig. 10 office scenario.
func NLoS(seed int64, scale Scale) TableIIIRow {
	defer expSpan("nlos").End()
	tb := core.NLoSOffice(seed)
	res, ok := tb.RateSearch(1.5e-2, core.CovertConfig{PayloadBits: scale.PayloadBits})
	return TableIIIRow{
		DistanceM: tb.Channel.DistanceM,
		BER:       res.BER(),
		TR:        res.TransmitRate,
		IP:        res.InsertionProb(),
		DP:        res.DeletionProb(),
		OK:        ok,
	}
}

// ---------------------------------------------------------------------
// Fig. 11 — keystroke spectrogram.

// Fig11Result summarizes the typed-sentence spectrogram.
type Fig11Result struct {
	Spectrogram *dsp.Spectrogram
	Text        string
	Keystrokes  int
	// DistinctBursts is the number of above-threshold activity bursts
	// in the spike band; it should be near the keystroke count.
	DistinctBursts int
}

// Fig11 renders the "can you hear me" spectrogram and counts the
// per-key bursts visible in the spike band.
func Fig11(seed int64) Fig11Result {
	defer expSpan("fig11").End()
	tb := core.NewTestbed(core.WithSeed(seed))
	text := "can you hear me"
	s, events := tb.KeylogSpectrogram(text)
	f0 := tb.Profile.VRM.SwitchingFreqHz
	col := s.Column(s.Bin(f0 - (f0 - 60e3)))
	dsp.Normalize(col)
	thr := dsp.BimodalThreshold(col, 40)
	iv := dsp.ThresholdCrossings(col, thr)
	iv = dsp.MergeIntervals(iv, 3)
	iv = dsp.FilterIntervals(iv, 3)
	return Fig11Result{
		Spectrogram:    s,
		Text:           text,
		Keystrokes:     len(events),
		DistinctBursts: len(iv),
	}
}

// ---------------------------------------------------------------------
// Table IV — keylogging accuracy at three placements.

// TableIVRow is one placement's scores.
type TableIVRow struct {
	Placement string
	TPR, FPR  float64
	Precision float64
	Recall    float64
}

// String renders the row.
func (r TableIVRow) String() string {
	return fmt.Sprintf("%-18s TPR=%5.1f%% FPR=%4.1f%% Prec=%5.1f%% Recall=%5.1f%%",
		r.Placement, 100*r.TPR, 100*r.FPR, 100*r.Precision, 100*r.Recall)
}

// TableIV measures keylogging accuracy at the paper's three placements:
// 10 cm probe, 2 m loop antenna, and 1.5 m through the wall.
func TableIV(seed int64, scale Scale) []TableIVRow {
	defer expSpan("table4").End()
	placements := []struct {
		name string
		opts []core.Option
	}{
		{"10cm", nil},
		{"2m", []core.Option{core.WithDistance(2), core.WithAntenna(sdr.LoopLA390)}},
		{"1.5m+wall", []core.Option{
			core.WithDistance(1.5), core.WithWall(15), core.WithAntenna(sdr.LoopLA390)}},
	}
	return sweep.Map(len(placements), func(i int) TableIVRow {
		p := placements[i]
		opts := append([]core.Option{core.WithSeed(seed + int64(i))}, p.opts...)
		tb := core.NewTestbed(opts...)
		res := tb.RunKeylog(core.KeylogConfig{Words: scale.Words})
		return TableIVRow{
			Placement: p.name,
			TPR:       res.Char.TPR,
			FPR:       res.Char.FPR,
			Precision: res.Word.Precision,
			Recall:    res.Word.Recall,
		}
	})
}

// ---------------------------------------------------------------------
// Ablations of the receiver design (DESIGN.md §6).

// AblationResult compares a design choice on/off.
type AblationResult struct {
	Name    string
	With    float64
	Without float64
	Comment string
}

// ReceiverAblations evaluates the DESIGN.md §6 receiver design choices.
func ReceiverAblations(seed int64, scale Scale) []AblationResult {
	defer expSpan("ablations").End()
	var out []AblationResult

	// Multi-harmonic acquisition (Eq. 1 with |S|=2 vs fundamental
	// only): channel error rate at the 2.5 m operating point, averaged
	// over a few seeds to steady the comparison. The |S|=2 and |S|=1
	// groups share seeds and differ only receiver-side, so the second
	// group replays the first group's transmitter traces from the cache.
	harmonics := []int{2, 1}
	errs := sweep.Map(len(harmonics)*scale.Runs, func(c int) float64 {
		h, r := harmonics[c/scale.Runs], c%scale.Runs
		tb := core.NewTestbed(
			core.WithDistance(2.5),
			core.WithAntenna(sdr.LoopLA390),
			core.WithSeed(seed+int64(r)),
		)
		res := tb.RunCovert(core.CovertConfig{
			PayloadBits: scale.PayloadBits,
			SleepPeriod: 5 * tb.Profile.DefaultSleepPeriod,
			RXHarmonics: h,
		})
		return res.ErrorRate()
	})
	groupMean := func(g int) float64 {
		var sum float64
		for r := 0; r < scale.Runs; r++ {
			sum += errs[g*scale.Runs+r]
		}
		return sum / float64(scale.Runs)
	}
	out = append(out, AblationResult{
		Name:    "2.5m error rate: |S|=2 vs |S|=1",
		With:    groupMean(0),
		Without: groupMean(1),
		Comment: "multi-harmonic acquisition (Eq. 1)",
	})

	// Error-control coding against isolated labeling errors (the
	// paper's §IV-B4 fix): random bit flips on the coded stream at the
	// channel's raw BER, decoded with and without Hamming(7,4).
	const flipP = 0.01
	rng := xrand.New(seed + 555)
	payload := rng.Bits(4000)
	var h ecc.Hamming74
	coded := h.Encode(payload)
	for i := range coded {
		if rng.Bool(flipP) {
			coded[i] ^= 1
		}
	}
	decoded, _ := h.Decode(coded)
	hammingErrs := 0
	for i := range payload {
		if decoded[i] != payload[i] {
			hammingErrs++
		}
	}
	out = append(out, AblationResult{
		Name:    "payload BER at 1% label flips: Hamming vs raw",
		With:    float64(hammingErrs) / float64(len(payload)),
		Without: flipP,
		Comment: "Hamming(7,4) corrects isolated labeling errors",
	})
	return out
}

// ---------------------------------------------------------------------
// §VI — countermeasures (extension: the paper proposes these
// qualitatively; here they are implemented and measured).

// Countermeasures evaluates the §VI defense set against both attacks at
// the 2 m attacker placement.
func Countermeasures(seed int64, scale Scale) []defense.Outcome {
	defer expSpan("countermeasures").End()
	return defense.Evaluate(defense.Standard(), seed, scale.PayloadBits, scale.Words)
}

// ---------------------------------------------------------------------
// Attack model (ii-b) — activity-duration fingerprinting (extension).

// FingerprintResult is the accuracy of the §III task-fingerprinting
// attack at two attacker placements.
type FingerprintResult struct {
	NearAccuracy float64
	FarAccuracy  float64
	Classes      int
}

// Fingerprint trains and evaluates the page-load classifier near-field
// and at 2 m.
func Fingerprint(seed int64, scale Scale) FingerprintResult {
	defer expSpan("fingerprint").End()
	catalog := fingerprint.DefaultCatalog()
	trials := scale.Runs + 1
	near := func(s int64) *core.Testbed {
		return core.NewTestbed(core.WithSeed(s))
	}
	far := func(s int64) *core.Testbed {
		return core.NewTestbed(core.WithSeed(s),
			core.WithDistance(2.0), core.WithAntenna(sdr.LoopLA390))
	}
	res := FingerprintResult{Classes: len(catalog)}
	// The near and far placements use disjoint seed ranges and are
	// independent train+evaluate pipelines: two sweep cells.
	accs := sweep.Map(2, func(i int) float64 {
		if i == 0 {
			clf, err := fingerprint.Train(near, catalog, scale.Runs, seed)
			if err != nil {
				return 0
			}
			return fingerprint.Evaluate(clf, near, catalog, trials, seed+1000).Accuracy()
		}
		clf, err := fingerprint.Train(far, catalog, scale.Runs, seed+2000)
		if err != nil {
			return 0
		}
		return fingerprint.Evaluate(clf, far, catalog, trials, seed+3000).Accuracy()
	})
	res.NearAccuracy, res.FarAccuracy = accs[0], accs[1]
	return res
}

// Banner formats a section header for the harness output.
func Banner(title string) string {
	return fmt.Sprintf("\n==== %s %s\n", title, strings.Repeat("=", max(0, 66-len(title))))
}

// ---------------------------------------------------------------------
// Multi-core isolation (extension): does pinning unrelated work to a
// different core hide it from the VRM channel? It does not — the VRM
// feeds the whole package — and this experiment quantifies that.

// MultiCoreResult compares covert-channel pollution from a background
// hog on the transmitter's own core versus a different core.
type MultiCoreResult struct {
	QuietErr     float64 // no hog
	SameCoreErr  float64 // hog sharing the transmitter's core
	CrossCoreErr float64 // hog pinned to the other core
}

// MultiCoreIsolation runs the near-field covert channel on a dual-core
// target under three background placements.
func MultiCoreIsolation(seed int64, scale Scale) MultiCoreResult {
	defer expSpan("multicore").End()
	run := func(hogCore int) float64 {
		prof := laptop.Reference()
		prof.Kernel.Cores = 2
		sys := laptop.NewSystem(prof, seed)
		defer sys.Close()

		txCfg := covert.DefaultTXConfig(prof.DefaultSleepPeriod)
		payload := xrand.New(seed + 7919).Bits(scale.PayloadBits)
		frame := covert.EncodeFrame(payload, txCfg)
		// The transmitter always runs on core 0.
		runTx := covert.SpawnTransmitterOn(sys.Kernel(), 0, frame, txCfg)

		if hogCore >= 0 {
			rng := xrand.New(seed + 31)
			sys.Kernel().SpawnOn("hog", hogCore, func(p *kernel.Proc) {
				for {
					burst := sim.Time(rng.Uniform(float64(8*sim.Microsecond), float64(40*sim.Microsecond)))
					if rng.Bool(0.12) {
						burst = sim.Time(rng.Uniform(float64(250*sim.Microsecond), float64(500*sim.Microsecond)))
					}
					p.Busy(burst)
					p.Sleep(sim.Time(rng.Uniform(float64(2*sim.Millisecond), float64(6*sim.Millisecond))))
				}
			})
		}

		horizon := covert.AirtimeEstimate(frame, txCfg, prof.Kernel)
		sys.Run(horizon)
		tb := core.NewTestbed(core.WithLaptop(prof), core.WithSeed(seed))
		cap := tb.Capture(sys, horizon, sys.DefaultPlan())

		rxCfg := covert.DefaultRXConfig()
		rxCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
		rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
		d := covert.Demodulate(cap, rxCfg)
		cap.Recycle()
		return covert.Measure(runTx, d, txCfg, payload).ErrorRate()
	}
	// This experiment places processes on specific cores by hand, so it
	// never goes through RunCovert's trace cache — each cell simulates
	// its own dual-core system on the sweep pool.
	hogCores := []int{-1, 0, 1}
	errs := sweep.Map(len(hogCores), func(i int) float64 { return run(hogCores[i]) })
	return MultiCoreResult{
		QuietErr:     errs[0],
		SameCoreErr:  errs[1],
		CrossCoreErr: errs[2],
	}
}

// ---------------------------------------------------------------------
// Utilization inference (extension): under a demand-based (Speed-Shift
// style) DVFS governor, the emission amplitude during activity tracks
// utilization, so the channel leaks HOW busy the processor is, not just
// whether it is busy.

// UtilizationLeakResult holds band amplitude measured at several duty
// cycles under the demand governor.
type UtilizationLeakResult struct {
	Duty      []float64
	Amplitude []float64 // active-phase band amplitude, normalized to max
}

// Monotone reports whether amplitude rises with duty cycle.
func (r UtilizationLeakResult) Monotone() bool {
	for i := 1; i < len(r.Amplitude); i++ {
		if r.Amplitude[i] <= r.Amplitude[i-1] {
			return false
		}
	}
	return len(r.Amplitude) > 1
}

// UtilizationLeak runs a fixed-period duty-cycled workload at several
// duty levels on a Speed-Shift-style target and measures the VRM band
// amplitude during the active phases.
func UtilizationLeak(seed int64) UtilizationLeakResult {
	defer expSpan("utilization").End()
	duties := []float64{0.25, 0.5, 0.75, 1.0}
	res := UtilizationLeakResult{Duty: duties}
	res.Amplitude = sweep.Map(len(duties), func(i int) float64 {
		prof := laptop.Reference()
		prof.DVFSWindow = 5 * sim.Millisecond
		sys := laptop.NewSystem(prof, seed+int64(i))

		period := sim.Millisecond
		busy := sim.Time(duties[i] * float64(period))
		sys.Kernel().Spawn("load", func(p *kernel.Proc) {
			for j := 0; j < 60; j++ {
				p.Busy(busy)
				if idle := period - busy; idle > 0 {
					p.Sleep(idle)
				}
			}
		})
		horizon := 70 * sim.Millisecond
		sys.Run(horizon)
		plan := sys.DefaultPlan()
		field := sys.Emanations(horizon, plan)
		sys.Close()

		s := dsp.STFT(field, 1024, 256, dsp.Hann(1024), plan.SampleRate)
		dsp.PutIQ(field)
		col := s.Column(s.Bin(prof.VRM.SwitchingFreqHz - plan.CenterFreqHz))
		// Skip the cold-start window; measure the steady active level.
		tail := col[len(col)/3:]
		return dsp.Quantile(tail, 0.9)
	})
	// Normalize to the full-load level (after the sweep: the reference
	// cell must exist first).
	if max := res.Amplitude[len(res.Amplitude)-1]; max > 0 {
		for i := range res.Amplitude {
			res.Amplitude[i] /= max
		}
	}
	return res
}

// ---------------------------------------------------------------------
// §V-B end to end: dictionary attack through the full EM pipeline.

// DictionaryResult scores word identification over EM-detected
// keystrokes.
type DictionaryResult struct {
	Words     int
	Top1      int // true word ranked first among same-length candidates
	Top3      int
	MeanCands float64 // average candidate-list size (same-length words)
}

// Top1Rate returns the fraction of words identified exactly.
func (r DictionaryResult) Top1Rate() float64 {
	if r.Words == 0 {
		return 0
	}
	return float64(r.Top1) / float64(r.Words)
}

// Top3Rate returns the fraction of words whose truth lands in the top 3.
func (r DictionaryResult) Top3Rate() float64 {
	if r.Words == 0 {
		return 0
	}
	return float64(r.Top3) / float64(r.Words)
}

// Dictionary types a text drawn from the common-word dictionary, runs
// the full keylogging pipeline at 2 m, groups words, and ranks
// candidates by timing correlation.
func Dictionary(seed int64, scale Scale) DictionaryResult {
	defer expSpan("dictionary").End()
	dict := keylog.CommonWords()
	// Compose a text of dictionary words.
	rng := xrand.New(seed)
	n := scale.Words
	if n > 40 {
		n = 40
	}
	words := make([]string, n)
	for i := range words {
		words[i] = dict[rng.Intn(len(dict))]
	}
	text := strings.Join(words, " ")

	tb := core.NewTestbed(core.WithSeed(seed),
		core.WithDistance(2.0), core.WithAntenna(sdr.LoopLA390))
	// Timing correlation needs finer keystroke timestamps than the
	// default 2.5 ms detector window provides.
	detCfg := keylog.DefaultDetectorConfig()
	detCfg.Window = 800 * sim.Microsecond
	res := tb.RunKeylog(core.KeylogConfig{Text: text, Detector: &detCfg})
	groups := keylog.GroupWords(res.Detection.Keystrokes, 0)

	// Align recovered groups to true words by position (group i maps
	// to word i when counts match; otherwise score only the aligned
	// prefix — segmentation errors count as misses).
	out := DictionaryResult{Words: len(words)}
	var candTotal, candCount int
	for i, g := range groups {
		if i >= len(words) {
			break
		}
		cands := keylog.RankWord(g, dict, keylog.DefaultTypistConfig())
		if len(cands) > 0 {
			candTotal += len(cands)
			candCount++
		}
		r := keylog.Rank(cands, words[i])
		if r == 1 {
			out.Top1++
		}
		if r >= 1 && r <= 3 {
			out.Top3++
		}
	}
	if candCount > 0 {
		out.MeanCands = float64(candTotal) / float64(candCount)
	}
	return out
}

// ---------------------------------------------------------------------
// Noise waterfall (validation): the achievable rate at a fixed error
// target versus the environmental noise floor. A healthy channel
// degrades gracefully — rate falls as noise rises until the link dies —
// and a decoder bug typically breaks that shape.

// WaterfallPoint is one (noise, achievable rate) sample.
type WaterfallPoint struct {
	NoiseSigma float64
	Rate       float64 // bits/s at the error target; 0 when the link died
	ErrorRate  float64
	OK         bool
}

// Waterfall sweeps the environmental noise floor at the 2 m placement,
// rate-searching at each level.
func Waterfall(seed int64, scale Scale) []WaterfallPoint {
	defer expSpan("waterfall").End()
	sigmas := []float64{0.001, 0.002, 0.004, 0.008, 0.016}
	return sweep.Map(len(sigmas), func(i int) WaterfallPoint {
		tb := core.NewTestbed(
			core.WithSeed(seed+int64(i)),
			core.WithDistance(2.0),
			core.WithAntenna(sdr.LoopLA390),
			core.WithNoise(sigmas[i]),
		)
		res, ok := tb.RateSearch(1.5e-2, core.CovertConfig{PayloadBits: scale.PayloadBits})
		pt := WaterfallPoint{NoiseSigma: sigmas[i], OK: ok, ErrorRate: res.ErrorRate()}
		if ok {
			pt.Rate = res.TransmitRate
		}
		return pt
	})
}

// ---------------------------------------------------------------------
// §IV-A — the SLEEP_PERIOD floor. The paper: "around 10µs is the limit
// below which the actual idleness period of usleep() becomes highly
// variable", bounding the channel's bit rate.

// SleepFloorPoint characterizes the channel at one SLEEP_PERIOD.
type SleepFloorPoint struct {
	SleepPeriod sim.Time
	// JitterCV is the coefficient of variation of the actual sleep
	// durations (the "highly variable" metric).
	JitterCV float64
	// Rate and ErrorRate are the channel's performance at this
	// setting.
	Rate      float64
	ErrorRate float64
}

// SleepFloor sweeps SLEEP_PERIOD downward on the reference (Linux)
// laptop. As the period approaches the timer jitter, the relative
// timing variability explodes and the channel error rate follows.
func SleepFloor(seed int64, scale Scale) []SleepFloorPoint {
	defer expSpan("sleepfloor").End()
	periods := []sim.Time{
		200 * sim.Microsecond,
		100 * sim.Microsecond,
		50 * sim.Microsecond,
		20 * sim.Microsecond,
		8 * sim.Microsecond,
	}
	return sweep.Map(len(periods), func(i int) SleepFloorPoint {
		sp := periods[i]
		pt := SleepFloorPoint{SleepPeriod: sp}

		// Measure raw sleep variability on the target OS.
		prof := laptop.Reference()
		kcfg := prof.Kernel
		kcfg.InterruptRate = 0
		kcfg.TickInterval = 0
		k := kernel.New(kcfg, seed+int64(i))
		var durations []float64
		k.Spawn("sleeper", func(p *kernel.Proc) {
			for j := 0; j < 300; j++ {
				before := p.Now()
				p.Sleep(sp)
				durations = append(durations, float64(p.Now()-before))
			}
		})
		k.Run(sim.Second)
		k.Close()
		if m := dsp.Mean(durations); m > 0 {
			pt.JitterCV = dsp.Stddev(durations) / m
		}

		// Measure the channel at this setting.
		tb := core.NewTestbed(core.WithSeed(seed + int64(100+i)))
		res := tb.RunCovert(core.CovertConfig{
			PayloadBits: scale.PayloadBits,
			SleepPeriod: sp,
		})
		pt.Rate = res.TransmitRate
		pt.ErrorRate = res.ErrorRate()
		if pt.ErrorRate > 1 {
			pt.ErrorRate = 1
		}
		return pt
	})
}
