package main

import (
	"fmt"
	"sort"
	"time"

	"pmuleak/internal/kernel"
)

// layerFigures is everything a traced run measured per layer.
type layerFigures struct {
	busy         map[string]time.Duration // self time by span name
	counts       layerCounts
	hits, misses uint64 // core trace cache, over the untraced run
	gcCycles     uint32
	allocBytes   uint64
	overheadFrac float64
	quality      outcome // summed unit counts of the traced ops
	stream       streamFigures
}

// streamFigures are the daemon phases' stream-layer figures; zero
// where the phases do not run (keylog-session).
type streamFigures struct {
	waitP50, waitTail time.Duration
	genLagMax         time.Duration
	backlogEnd        int
	stalls            uint64
	stateBytesMax     int
}

// layerMetrics adds the per-layer metrics, under the same names on
// every workload.
func layerMetrics(rep *report, f layerFigures) {
	s := func(name string) float64 { return f.busy[name].Seconds() }
	c := f.counts
	rep.add("kernel.busy_s", "s", s("kernel"))
	rep.add("em.busy_s", "s", s("em"))
	rep.add("em.samples", "count", float64(c.emSamples))
	rep.add("em.alloc_mb", "MB", float64(c.emAllocBytes)/(1<<20))
	rep.add("emchannel.busy_s", "s", s("emchannel"))
	rep.add("emchannel.samples", "count", float64(c.channelSamples))
	rep.add("sdr.busy_s", "s", s("sdr"))
	rep.add("sdr.samples", "count", float64(c.sdrSamples))
	rep.add("sdr.clipped", "count", float64(c.sdrClipped))
	rep.add("faults.busy_s", "s", s("faults"))
	rep.add("faults.events", "count", float64(c.faultEvents))
	rep.add("covert.busy_s", "s", s("covert"))
	rep.add("covert.samples", "count", float64(c.covertSamples))
	rep.add("covert.retries", "count", float64(c.retries))
	rep.add("covert.resyncs", "count", float64(c.resyncs))
	rep.add("keylog.busy_s", "s", s("keylog"))
	rep.add("keylog.samples", "count", float64(c.keySamples))
	rep.add("score.busy_s", "s", s("score"))
	rep.add("core.tracecache.hits", "count", float64(f.hits))
	rep.add("core.tracecache.misses", "count", float64(f.misses))
	rep.add("core.tracecache.hit_ratio", "fraction", ratio(f.hits, f.hits+f.misses))
	rep.add("stream.push_busy_s", "s", s("stream.push"))
	rep.add("stream.wait_p50_ms", "ms", ms(f.stream.waitP50))
	rep.add("stream.wait_tail_ms", "ms", ms(f.stream.waitTail))
	rep.add("stream.finalize_busy_s", "s", s("stream.finalize"))
	rep.add("stream.gen_lag_max_ms", "ms", ms(f.stream.genLagMax))
	rep.add("stream.backlog_end", "count", float64(f.stream.backlogEnd))
	rep.add("stream.stalls", "count", float64(f.stream.stalls))
	rep.add("stream.state_bytes_max", "bytes", float64(f.stream.stateBytesMax))
	rep.add("runtime.gc_cycles", "count", float64(f.gcCycles))
	rep.add("runtime.alloc_mb", "MB", float64(f.allocBytes)/(1<<20))
	// An op's root span keeps as self time whatever no layer span covers.
	rep.add("other.busy_s", "s", s("op"))
	rep.add("trace.overhead_frac", "fraction", f.overheadFrac)
	q := f.quality
	rep.add("score.covert_ber", "fraction", ratio(uint64(q.bitErrs), uint64(q.txBits)))
	rep.add("score.keylog_recall", "fraction", ratio(uint64(q.keyMatched), uint64(q.keyTruth)))
}

// covertShares notes the mix a covert-transfer run achieved.
func covertShares(ops []batchOp, recs []opRecord, rep *report) {
	var variants, faulted, windows int
	shapes := map[string]int{}
	for _, op := range ops {
		c := op.(*covertOp)
		if !c.fresh {
			variants++
		}
		if c.cfg.Faults.Enabled() {
			faulted++
		}
		if c.tb.Profile.OS() == kernel.Windows {
			windows++
		}
		shapes[c.shape]++
	}
	n := float64(len(ops))
	rep.notef("mix: %d ops, receiver-side variants %.3f, faulted %.3f, Windows %.3f, shapes %s",
		len(ops), float64(variants)/n, float64(faulted)/n, float64(windows)/n, shareList(shapes, len(ops)))
	sizeShares("payload bits", ops, recs, func(op batchOp) int { return op.(*covertOp).cfg.PayloadBits }, rep)
}

// keylogShares notes the mix a keylog-session run achieved.
func keylogShares(ops []batchOp, recs []opRecord, rep *report) {
	var words, faulted int
	shapes := map[string]int{}
	for _, op := range ops {
		k := op.(*keylogOp)
		words += k.cfg.Words
		if k.cfg.Faults.Enabled() {
			faulted++
		}
		shapes[k.shape]++
	}
	n := float64(len(ops))
	rep.notef("mix: %d sessions, %.2f words/session, faulted %.3f, shapes %s", len(ops), float64(words)/n, float64(faulted)/n, shareList(shapes, len(ops)))
	sizeShares("words", ops, recs, func(op batchOp) int { return op.(*keylogOp).cfg.Words }, rep)
}

// sizeShares notes each size class's share of the ops and of their
// summed latency.
func sizeShares(what string, ops []batchOp, recs []opRecord, size func(batchOp) int, rep *report) {
	count := map[int]int{}
	busy := map[int]time.Duration{}
	var total time.Duration
	for i, op := range ops {
		count[size(op)]++
		busy[size(op)] += recs[i].latency
		total += recs[i].latency
	}
	var sizes []int
	for s := range count {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	line := "size classes (" + what + "): share of ops / of op time:"
	for _, s := range sizes {
		line += fmt.Sprintf(" %d %.3f/%.3f", s, float64(count[s])/float64(len(ops)), busy[s].Seconds()/total.Seconds())
	}
	rep.notef("%s", line)
}

func shareList(m map[string]int, n int) string {
	out := ""
	for _, k := range sortedKeys(m) {
		out += fmt.Sprintf(" %s=%.3f", k, float64(m[k])/float64(n))
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
