package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two duration buckets. Bucket i
// (1-based) holds durations in [2^(i-1), 2^i) nanoseconds; the last
// bucket absorbs everything above ~2^39 ns (≈9 minutes), far beyond any
// single pipeline stage.
const histBuckets = 40

// Histogram is a log-bucketed duration histogram: counts fall into
// power-of-two nanosecond buckets, so forty buckets cover nanoseconds
// to minutes with a worst-case resolution of 2x — coarse for averages
// (the exact sum is kept separately) but exactly right for "where did
// the time go" questions. All methods are safe for concurrent use; an
// Observe is three atomic adds.
type Histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Int64
	buckets [histBuckets + 1]atomic.Uint64 // [0] holds d <= 0
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
}

// bucketIndex maps a duration to its bucket: 0 for non-positive
// durations, otherwise the position of the highest set bit of the
// nanosecond count, clamped to the top bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i > histBuckets {
		i = histBuckets
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Reset zeroes the histogram's count, sum, and every bucket.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sumNs.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Start opens a span against the histogram; its End records the elapsed
// wall time. The span is a value — copy it freely, but End it once.
func (h *Histogram) Start() Span {
	return Span{h: h, t0: time.Now()}
}

// Span is an in-flight timed region of the pipeline (one simulate, one
// SDR acquisition, one sweep cell). Created by Histogram.Start.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// End records the span's elapsed time into its histogram. A zero Span
// is a no-op, so conditional instrumentation can End unconditionally.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.t0))
	}
}

// HistogramBucket is one non-empty bucket of a snapshot: Count
// observations with durations strictly below UpperNs nanoseconds (and,
// for all but the first bucket, at least UpperNs/2).
type HistogramBucket struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets are
// ordered by ascending bound and include only non-empty entries, so the
// serialized form is compact and deterministic for equal contents.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	SumNs   int64             `json:"sum_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the average observed duration, or 0 with no samples.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / int64(s.Count))
}

// Quantile returns an upper bound on the p-th quantile of the observed
// durations: the bucket boundary below which at least ceil(p·count)
// observations fall. The bound is exact to the histogram's 2x bucket
// resolution — the right precision for latency reporting, where the
// question is "which decade", not "which nanosecond". p is clamped to
// [0, 1]; a histogram with no samples reports 0.
//
// The result is a pure function of the bucket multiset, so it is
// deterministic across any merge order: merging snapshots adds bucket
// counts, and addition commutes (pinned by TestQuantileMergeOrder).
func (s HistogramSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return time.Duration(b.UpperNs)
		}
	}
	// Bucket counts summing short of Count cannot happen for snapshots
	// this package produces; answer with the largest bound regardless.
	return time.Duration(s.Buckets[len(s.Buckets)-1].UpperNs)
}

// Quantile reports the p-th quantile bound of the histogram's current
// contents; see HistogramSnapshot.Quantile for the semantics.
func (h *Histogram) Quantile(p float64) time.Duration {
	return h.snapshot().Quantile(p)
}

// sub returns the change from an earlier snapshot prev to s, assuming s
// extends prev (the histogram only accumulated in between). Buckets
// subtract by boundary; empty results are omitted, matching snapshot().
func (s HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count - prev.Count, SumNs: s.SumNs - prev.SumNs}
	prevByUpper := make(map[int64]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevByUpper[b.UpperNs] = b.Count
	}
	for _, b := range s.Buckets {
		n := b.Count - prevByUpper[b.UpperNs]
		if n == 0 {
			continue
		}
		out.Buckets = append(out.Buckets, HistogramBucket{UpperNs: b.UpperNs, Count: n})
	}
	return out
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNs: h.sumNs.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		upper := int64(1)
		if i > 0 {
			upper = int64(1) << uint(i)
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperNs: upper, Count: n})
	}
	return s
}
