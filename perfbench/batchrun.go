package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/kernel"
)

// batchWorkload describes a closed-loop workload of batch ops.
type batchWorkload struct {
	round  func(seed int64, r int) []batchOp
	warmup func(seed int64) []batchOp
	// shares reports the mix the generated ops achieve.
	shares func(ops []batchOp, recs []opRecord, r *report)
	// anchor is what round 0 at fixedSeed recovers (see runAnchor).
	anchor units
	// streams makes the traced run also stream the daemon workload's
	// phases, for the stream layer's per-layer metrics.
	streams bool
}

// A timed phase runs max(2, ceil(--seconds / roundSeconds)) whole rounds:
// a round takes 6-7 s on a 2-vCPU host, so --seconds 30 runs four. The
// op set is a function of the seed and --seconds alone, so every figure
// covers the same ops on every run. Four rounds also put the tenth-
// beyond tail inside a cost class on both batch workloads (the 11th
// largest covert op is a 256-bit Windows transfer, behind eight 512-bit
// ones); with five it fell on the edge between two classes and moved by
// a third from run to run. The traced run replays the first
// tracedRounds.
const (
	roundSeconds = 8
	tracedRounds = 2
)

func runCovertTransfer(o options) (*report, error) {
	return runBatch(o, batchWorkload{
		round: func(seed int64, r int) []batchOp {
			var ops []batchOp
			for _, op := range covertRound(seed, r) {
				ops = append(ops, op)
			}
			return ops
		},
		// Warm-up: one fresh 96-bit transfer of round -1 per OS family,
		// so every run warms up the same kinds of capture.
		warmup: func(seed int64) []batchOp {
			var ops []batchOp
			seen := map[kernel.OSKind]bool{}
			for _, op := range covertRound(seed, -1) {
				if fam := op.tb.Profile.OS(); op.fresh && op.cfg.PayloadBits == 96 && !seen[fam] {
					seen[fam] = true
					ops = append(ops, op)
				}
			}
			return ops
		},
		shares:  covertShares,
		anchor:  units{recovered: 8451, total: 11156},
		streams: true,
	})
}

func runKeylogSession(o options) (*report, error) {
	return runBatch(o, batchWorkload{
		round: func(seed int64, r int) []batchOp {
			var ops []batchOp
			for _, op := range keylogRound(seed, r) {
				ops = append(ops, op)
			}
			return ops
		},
		// Warm-up: the shortest session and the given-text session of
		// round -1, which use the two STFT sizes.
		warmup: func(seed int64) []batchOp {
			var ops []batchOp
			for _, op := range keylogRound(seed, -1) {
				if op.shape == "dictionary" || (op.cfg.Words == keylogWords[0] && op.cfg.Text == "") {
					ops = append(ops, op)
				}
			}
			return ops
		},
		shares: keylogShares,
		anchor: units{recovered: 298, total: 312},
	})
}

// runBatch sets a batch workload up, then measures it untraced (trace
// off) or runs its first rounds untraced and traced (trace on), and
// finally runs the anchor round. The untraced measurement reports
// throughput as the median round's, so a burst of host contention moves
// one round, not the result; each round starts from a heap returned to
// the OS, outside its timing.
func runBatch(o options, w batchWorkload) (*report, error) {
	nRounds := max(tracedRounds, (o.seconds+roundSeconds-1)/roundSeconds)
	rounds, setup, err := timeSetups(o.clock, func() ([][]batchOp, error) {
		core.ResetTraceCache() // every repetition simulates its warm-up afresh
		rounds := make([][]batchOp, nRounds)
		for r := range rounds {
			rounds[r] = w.round(o.seed, r)
		}
		for _, rec := range runOps(w.warmup(fixedSeed), nil) {
			if rec.out.err != nil {
				return nil, fmt.Errorf("warm-up: %w", rec.out.err)
			}
		}
		return rounds, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if o.trace {
		if err := traceBatch(o, w, rounds[:tracedRounds], rep); err != nil {
			return nil, err
		}
		_, err := runAnchor(w, rep, 1)
		return rep, err
	}

	rep.add("setup_s", "s", setup.Seconds())
	hits0, misses0 := core.TraceCacheStats()
	var recs []opRecord
	var ops []batchOp
	var opRate, msps sample // per round
	var busy time.Duration  // summed op latencies
	phaseStart := time.Now()
	for r := range rounds {
		resetPeakRSS()
		rr := runOps(rounds[r], o.clock)
		// A round's rates count its ops' own time, not the collections
		// runOps makes between them.
		var roundBusy time.Duration
		samples := 0
		for _, rec := range rr {
			roundBusy += rec.latency
			samples += rec.out.samples
		}
		busy += roundBusy
		opRate = append(opRate, float64(len(rr))/roundBusy.Seconds())
		msps = append(msps, float64(samples)/roundBusy.Seconds()/1e6)
		recs = append(recs, rr...)
		ops = append(ops, rounds[r]...)
	}
	stolen := o.clock.stolen(phaseStart, time.Now())
	hits, misses := core.TraceCacheStats()
	hits, misses = hits-hits0, misses-misses0

	var lat sample
	for i, rec := range recs {
		lat.add(rec.latency)
		if rec.out.err != nil {
			rep.failed++
			rep.problemf("op %d (%s): %v", i, ops[i].describe(), rec.out.err)
		}
	}
	rep.attempted = len(recs)
	tail, pct, ok := lat.tail(tailBeyond)
	if !ok {
		rep.problemf("only %d ops; the tail needs more than %d", len(recs), tailBeyond)
	}
	got := quality(sumOutcomes(recs), rep)
	rep.add("ops_per_s", "ops/s", opRate.median())
	rep.add("msamples_per_s", "Msamples/s", msps.median())
	rep.add("op_p50_ms", "ms", lat.median())
	rep.add("op_tail_ms", "ms", tail)
	rep.add("recovered_frac", "fraction", float64(got.recovered)/float64(got.total))

	rep.notef("timed phase: %d ops in %d rounds, %.2f s of op time (VM time), %.1f%% of wall time stolen by the host (closed loop, one client); per-round ops/s %.3f",
		len(recs), len(opRate), busy.Seconds(), 100*stolen, opRate)
	rep.notef("op_tail_ms is p%.1f of %d ops (%d beyond it)", pct, len(recs), tailBeyond)
	rep.notef("error_frac %.4f (%d of %d ops failed)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	rep.notef("core.tracecache over the timed phase: %d hits, %d misses (hit share %.3f)", hits, misses, ratio(hits, hits+misses))
	w.shares(ops, recs, rep)
	replay(ops, recs, rep)
	peak, err := runAnchor(w, rep, anchorReps)
	if err != nil {
		return nil, err
	}
	rep.add("peak_rss_mb", "MB", peak)
	return rep, nil
}

func sumOutcomes(recs []opRecord) outcome {
	var sum outcome
	for _, rec := range recs {
		sum = sum.plus(rec.out)
	}
	return sum
}

// quality notes the pooled covert BER and keystroke recall of sum and
// checks that the attacks still recover most of what was sent; it
// returns the recovered and transmitted units (covert bits, keystrokes).
func quality(sum outcome, rep *report) units {
	rep.notef("quality: covert_ber %.5f (%d/%d bits), keylog_recall %.4f (%d/%d keys)",
		ratio(uint64(sum.bitErrs), uint64(sum.txBits)), sum.bitErrs, sum.txBits,
		ratio(uint64(sum.keyMatched), uint64(sum.keyTruth)), sum.keyMatched, sum.keyTruth)
	u := sum.units()
	if u.total == 0 || float64(u.recovered) < minRecovered*float64(u.total) {
		rep.problemf("recovered %d of %d units, below the %.0f%% floor: the attack no longer works", u.recovered, u.total, 100*minRecovered)
	}
	return u
}

// fixedSeed is the seed of the inputs that do not vary with --seed: the
// warm-up, from round -1, so set-up does the same work on every run,
// and the anchor round, round 0.
const fixedSeed = 0

// anchorReps is how many times an untraced run repeats the anchor round
// for peak RSS.
const anchorReps = 2

// runAnchor runs the anchor round reps times after the measurement,
// untimed, each op from a heap returned to the OS, and returns the mean
// over the round's ops of each op's lowest peak RSS. It requires every
// repetition to recover exactly the units recorded in w.anchor:
// recovered_frac moves with --seed, so its bound must cover the spread
// between seeds, but on fixed inputs the attack's results are a pure
// function of the program and any change in them fails the run. The
// record was taken on linux/amd64.
//
// Peak RSS is taken here rather than over the timed rounds, where the
// heap each op leaves behind sets the next op's footprint. An op's peak
// is set by how far its heap grows while a collection marks, so:
//   - the round runs with GOMAXPROCS 1. With two Ps the collector also
//     runs on the P the op leaves idle, at whatever speed the host gives
//     that vCPU: under load on the other vCPU the keylog round's mean
//     peak rose from about 300 to 440 MB. On one P the collector keeps
//     pace with the op's own CPU time. The library's worker counts
//     follow runtime.NumCPU, not GOMAXPROCS, so the op allocates the
//     same buffers;
//   - every repetition starts from an empty trace cache, so all do the
//     same work;
//   - one op's peak still moves by up to a fifth between repetitions,
//     always upwards from a floor, so an op's figure is its lowest
//     peak, and the result the mean over the round's ops.
func runAnchor(w batchWorkload, rep *report, reps int) (meanPeakMB float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ops := w.round(fixedSeed, 0)
	peaks := make(sample, len(ops))
	var repMeans sample
	for r := 0; r < reps; r++ {
		core.ResetTraceCache()
		var sum outcome
		repMean := 0.0
		for i, op := range ops {
			resetPeakRSS()
			out := safely(op.run)
			peak, err := peakRSSMB()
			if err != nil {
				return 0, err
			}
			if r == 0 || peak < peaks[i] {
				peaks[i] = peak
			}
			repMean += peak / float64(len(ops))
			if out.err != nil {
				rep.problemf("anchor op %d (%s): %v", i, op.describe(), out.err)
			}
			sum = sum.plus(out)
		}
		repMeans = append(repMeans, repMean)
		if got := sum.units(); got != w.anchor {
			rep.problemf("anchor round, repetition %d, recovered %d of %d units, recorded %d of %d: the attack's results changed",
				r, got.recovered, got.total, w.anchor.recovered, w.anchor.total)
		}
	}
	for _, p := range peaks {
		meanPeakMB += p / float64(len(peaks))
	}
	rep.notef("anchor round (seed %d, round 0, %d ops, %d repetitions, GOMAXPROCS 1): recorded %d of %d units; op peak RSS MB, lowest of the repetitions, %.0f; mean op peak per repetition %.1f",
		fixedSeed, len(ops), reps, w.anchor.recovered, w.anchor.total, peaks, repMeans)
	return meanPeakMB, nil
}

// minRecovered is the sanity floor on the pooled share of transmitted
// bits and keystrokes an attack run recovers.
const minRecovered = 0.5

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replay re-runs the cheapest op of the timed phase and requires the
// same result: the outputs are a pure function of the inputs.
func replay(ops []batchOp, recs []opRecord, rep *report) {
	best := 0
	for i, rec := range recs {
		if rec.latency < recs[best].latency {
			best = i
		}
	}
	again := safely(ops[best].run)
	if again.err != nil || again.digest != recs[best].out.digest {
		rep.problemf("replaying op %d (%s) gave a different result", best, ops[best].describe())
	}
}

// traceBatch runs each op of the first rounds untraced and as its traced
// layer chain, requires identical results, and reports the per-layer
// metrics. The runtime figures cover both runs. With w.streams it then
// streams the daemon workload's phases for the stream layer's figures.
func traceBatch(o options, w batchWorkload, rounds [][]batchOp, rep *report) error {
	var ops []batchOp
	for _, r := range rounds {
		ops = append(ops, r...)
	}
	hits0, misses0 := core.TraceCacheStats()
	gc0, alloc0 := memStats()
	t := newTracer()
	st := &tracedState{}
	plain, traced := runOpsTraced(ops, t, st)
	gc1, alloc1 := memStats()
	hits, misses := core.TraceCacheStats()
	hits, misses = hits-hits0, misses-misses0
	var plainWall, tracedWall time.Duration
	for i := range ops {
		plainWall += plain[i].latency
		tracedWall += traced[i].latency
	}

	rep.attempted = len(ops)
	for i := range ops {
		p, q := plain[i].out, traced[i].out
		switch {
		case p.err != nil || q.err != nil:
			rep.failed++
			rep.problemf("op %d (%s): untraced err %v, traced err %v", i, ops[i].describe(), p.err, q.err)
		case p.digest != q.digest:
			rep.failed++
			rep.problemf("op %d (%s): traced result differs from untraced", i, ops[i].describe())
		}
	}
	sum := sumOutcomes(traced)
	quality(sum, rep)
	rep.notef("traced %d ops: untraced %.3f s, traced %.3f s", len(ops), plainWall.Seconds(), tracedWall.Seconds())
	noteShares(rep, t.busy())
	var streams streamFigures
	if w.streams {
		var err error
		if streams, err = traceStreams(o, t, rep); err != nil {
			return err
		}
	}

	layerMetrics(rep, layerFigures{
		busy:         t.busy(),
		counts:       st.layerCounts,
		hits:         hits,
		misses:       misses,
		gcCycles:     gc1 - gc0,
		allocBytes:   alloc1 - alloc0,
		overheadFrac: tracedWall.Seconds()/plainWall.Seconds() - 1,
		quality:      sum,
		stream:       streams,
	})
	if err := t.write(spansPath(o)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans not written: %v\n", err)
	}
	return nil
}

// noteShares prints each layer's share of the traced self time.
func noteShares(rep *report, busy map[string]time.Duration) {
	var total time.Duration
	var names []string
	for n, d := range busy {
		total += d
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return busy[names[a]] > busy[names[b]] })
	line := "self-time split:"
	for _, n := range names {
		line += fmt.Sprintf(" %s %.1f%%", n, 100*busy[n].Seconds()/total.Seconds())
	}
	rep.notef("%s", line)
}
