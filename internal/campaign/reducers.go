package campaign

import (
	"fmt"
	"math"
	"sort"
)

// Streaming reducers: the campaign layer's replacement for result
// slices. A million-cell sweep must not hold a million results — each
// block of cells folds its samples into one of these as it goes, and
// the caller merges the per-block states in block-index order at the
// end. Peak memory is O(blocks × reducer state), independent of the
// cell count.
//
// Two determinism classes, matching the byte-identical-report contract
// (see the package doc comment):
//
//   - Hist, Sketch, and TopK hold exact state (integer bucket counts,
//     a total-ordered selection). Their merges are associative and
//     commutative in exact arithmetic, so any partition of the cells
//     produces identical merged state.
//
//   - MeanVar accumulates in float64 (Welford update, Chan et al.
//     merge), which is NOT associative. Its determinism comes from the
//     campaign's fixed block partition and fixed merge order: the
//     partition depends only on (cells, blocks) and the fold happens in
//     block-index order on one goroutine, so every worker count
//     performs the exact same sequence of float operations.

// ---------------------------------------------------------------------
// Hist: fixed-geometry linear histogram.

// Hist is an online histogram with fixed linear bins over [Lo, Hi).
// Counts are uint64, so merging is exact. Out-of-range samples land in
// the Under/Over tails and still count toward quantiles (as Lo-epsilon
// and Hi+epsilon respectively).
type Hist struct {
	Lo, Hi      float64
	Bins        []uint64
	Under, Over uint64
	N           uint64
}

// NewHist returns a histogram with the given geometry. bins must be
// positive and hi > lo.
func NewHist(lo, hi float64, bins int) *Hist {
	if bins <= 0 || !(hi > lo) {
		panic(fmt.Sprintf("campaign: bad histogram geometry [%g,%g)/%d", lo, hi, bins))
	}
	return &Hist{Lo: lo, Hi: hi, Bins: make([]uint64, bins)}
}

// Add folds one sample in.
func (h *Hist) Add(v float64) {
	h.N++
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Bins)) * (v - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Bins) { // v just below Hi with rounding up
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// Merge folds another histogram of identical geometry in. Exact:
// integer adds only.
func (h *Hist) Merge(o *Hist) {
	if o.Lo != h.Lo || o.Hi != h.Hi || len(o.Bins) != len(h.Bins) {
		panic("campaign: merging histograms with different geometry")
	}
	for i, c := range o.Bins {
		h.Bins[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
	h.N += o.N
}

// Quantile returns the q-quantile (0 <= q <= 1) by walking the bins and
// interpolating linearly inside the target bin. Deterministic for
// identical state.
func (h *Hist) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(q * float64(h.N-1))
	if target >= h.N {
		target = h.N - 1
	}
	var cum uint64
	if h.Under > 0 {
		cum = h.Under
		if target < cum {
			return h.Lo
		}
	}
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, c := range h.Bins {
		if c > 0 && target < cum+c {
			frac := float64(target-cum) / float64(c)
			return h.Lo + width*(float64(i)+frac)
		}
		cum += c
	}
	return h.Hi
}

// StateBytes reports the reducer's memory footprint: fixed by the bin
// count, independent of how many samples were added.
func (h *Hist) StateBytes() int { return 8*len(h.Bins) + 5*8 }

// ---------------------------------------------------------------------
// Sketch: mergeable log-bucketed quantile sketch.

// sketchMinValue is the smallest value the sketch resolves; anything
// smaller (including zero — a BER of exactly 0 is common) lands in the
// dedicated zero bucket.
const sketchMinValue = 1e-12

// Sketch is a quantile sketch over non-negative values with bounded
// relative error: bucket k covers (gamma^(k-1), gamma^k] with
// gamma = (1+alpha)/(1-alpha), so any quantile estimate is within a
// factor (1±alpha) of the true value (the DDSketch bucket layout).
// State is integer bucket counts in a sparse map, so Merge is exact and
// associative — the property that makes campaign reports byte-identical
// however cells are grouped. Memory is O(log(max/min)/alpha), bounded by the
// value range, not the sample count.
type Sketch struct {
	alpha       float64
	gamma       float64
	invLogGamma float64
	zero        uint64
	buckets     map[int]uint64
	n           uint64
}

// NewSketch returns a sketch with relative accuracy alpha (e.g. 0.01
// for 1% quantile error). 0 < alpha < 1.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("campaign: bad sketch accuracy %g", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
		buckets:     make(map[int]uint64),
	}
}

// Add folds one sample in. Negative values are treated as zero (the
// campaign's metrics — BER, F1, rates — are non-negative by
// construction; clamping keeps a stray -0.0 or tiny negative round-off
// out of the bucket index math).
func (s *Sketch) Add(v float64) {
	s.n++
	if v < sketchMinValue {
		s.zero++
		return
	}
	s.buckets[s.index(v)]++
}

func (s *Sketch) index(v float64) int {
	return int(math.Ceil(math.Log(v) * s.invLogGamma))
}

// value returns the representative value of bucket k: the geometric
// midpoint 2*gamma^k/(gamma+1), which bounds the relative error by
// alpha on both sides.
func (s *Sketch) value(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Merge folds another sketch in. Both must share alpha. Exact integer
// adds: merge order can never matter.
func (s *Sketch) Merge(o *Sketch) {
	if o.alpha != s.alpha {
		panic("campaign: merging sketches with different accuracy")
	}
	s.zero += o.zero
	s.n += o.n
	for k, c := range o.buckets {
		s.buckets[k] += c
	}
}

// N returns the number of samples folded in.
func (s *Sketch) N() uint64 { return s.n }

// Quantile returns the q-quantile (0 <= q <= 1) with relative error at
// most alpha. Bucket keys are sorted before the walk, so the result
// depends only on the (exact) bucket counts.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	target := uint64(q * float64(s.n-1))
	if target >= s.n {
		target = s.n - 1
	}
	if target < s.zero {
		return 0
	}
	keys := make([]int, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := s.zero
	for _, k := range keys {
		cum += s.buckets[k]
		if target < cum {
			return s.value(k)
		}
	}
	// Unreachable when counts are consistent; return the top bucket.
	if len(keys) == 0 {
		return 0
	}
	return s.value(keys[len(keys)-1])
}

// StateBytes reports the sketch's memory footprint: proportional to the
// number of occupied buckets (value-range-dependent), independent of
// the sample count.
func (s *Sketch) StateBytes() int { return 16*len(s.buckets) + 6*8 }

// ---------------------------------------------------------------------
// MeanVar: streaming mean/variance (Welford).

// MeanVar accumulates count, mean, and the centered second moment with
// Welford's update, merging partial states with the Chan et al.
// parallel formula. Float state: see the package doc for why its
// determinism relies on the fixed block partition and merge order
// rather than associativity.
type MeanVar struct {
	Count uint64
	Mean  float64
	M2    float64
}

// Add folds one sample in (Welford's numerically stable update).
func (m *MeanVar) Add(v float64) {
	m.Count++
	d := v - m.Mean
	m.Mean += d / float64(m.Count)
	m.M2 += d * (v - m.Mean)
}

// Merge folds another partial state in (Chan et al. 1979).
func (m *MeanVar) Merge(o MeanVar) {
	if o.Count == 0 {
		return
	}
	if m.Count == 0 {
		*m = o
		return
	}
	n1, n2 := float64(m.Count), float64(o.Count)
	d := o.Mean - m.Mean
	tot := n1 + n2
	m.Mean += d * n2 / tot
	m.M2 += o.M2 + d*d*n1*n2/tot
	m.Count += o.Count
}

// Variance returns the population variance.
func (m *MeanVar) Variance() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.M2 / float64(m.Count)
}

// Std returns the population standard deviation.
func (m *MeanVar) Std() float64 { return math.Sqrt(m.Variance()) }

// ---------------------------------------------------------------------
// TopK: deterministic worst-offender selection.

// Item is one retained cell: its metric value and its stable cell
// index. The pair (Value desc, Cell asc) is a strict total order —
// cell indices are unique — which makes top-k selection associative:
// any partition of the cells merges to the same k extremes.
type Item struct {
	Value float64
	Cell  int64
}

// TopK retains the k largest items under the (Value desc, Cell asc)
// order. The zero value is unusable; call NewTopK.
type TopK struct {
	k     int
	items []Item // sorted: best (largest) first
}

// NewTopK returns a selector retaining k items.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("campaign: NewTopK with non-positive k")
	}
	return &TopK{k: k, items: make([]Item, 0, k)}
}

// ranksBefore reports whether a outranks b in the retained order.
func ranksBefore(a, b Item) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Cell < b.Cell
}

// Add offers one item.
func (t *TopK) Add(v float64, cell int64) {
	it := Item{Value: v, Cell: cell}
	if len(t.items) == t.k && !ranksBefore(it, t.items[len(t.items)-1]) {
		return
	}
	// Insertion sort: k is small (worst-offender lists), a linear scan
	// beats heap bookkeeping and keeps the slice always totally ordered.
	pos := len(t.items)
	for pos > 0 && ranksBefore(it, t.items[pos-1]) {
		pos--
	}
	if len(t.items) < t.k {
		t.items = append(t.items, Item{})
	}
	copy(t.items[pos+1:], t.items[pos:])
	t.items[pos] = it
}

// Merge folds another selector in. Both must share k.
func (t *TopK) Merge(o *TopK) {
	if o.k != t.k {
		panic("campaign: merging TopK selectors with different k")
	}
	for _, it := range o.items {
		t.Add(it.Value, it.Cell)
	}
}

// Items returns the retained items, best first. The returned slice is
// the selector's own storage; callers must not mutate it.
func (t *TopK) Items() []Item { return t.items }
