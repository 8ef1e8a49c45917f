package dsp

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pmuleak/internal/xrand"
)

// The receiver kernels below were rewritten for speed, and the
// algorithms they replaced are kept here as oracles. Each new kernel is
// held to the equality its consumers need (DESIGN §9): convolution and
// peak picking are identical under Float64bits / reflect.DeepEqual;
// Quantile is identical under ==, and under Float64bits whenever the
// value is nonzero (a -0/+0 tie may resolve to either sign).

// quantileSort is Quantile by a full sort of a copy of x.
func quantileSort(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is quantileSort's interpolation over an already
// sorted slice.
func quantileSorted(s []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// findPeaksReference is FindPeaks with greedy suppression that scans
// every candidate for every kept peak: O(kept × candidates).
func findPeaksReference(x []float64, minDist int, minHeight float64) []int {
	if minDist < 1 {
		minDist = 1
	}
	var candidates []int
	for i := range x {
		if x[i] < minHeight {
			continue
		}
		left := i == 0 || x[i] > x[i-1]
		right := i == len(x)-1 || x[i] >= x[i+1]
		if left && right {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	order := append([]int(nil), candidates...)
	sort.Slice(order, func(a, b int) bool {
		if x[order[a]] != x[order[b]] {
			return x[order[a]] > x[order[b]]
		}
		return order[a] < order[b]
	})
	kept := make([]int, 0, len(order))
	suppressed := make(map[int]bool)
	for _, p := range order {
		if suppressed[p] {
			continue
		}
		kept = append(kept, p)
		for _, q := range candidates {
			d := q - p
			if d < 0 {
				d = -d
			}
			if q != p && d < minDist {
				suppressed[q] = true
			}
		}
	}
	sort.Ints(kept)
	return kept
}

// convolveReference is Convolve one output at a time, one serial add
// chain per output.
func convolveReference(x, k []float64) []float64 {
	out := make([]float64, len(x))
	half := len(k) / 2
	for i := range out {
		var sum float64
		for j, kv := range k {
			idx := i + j - half
			if idx >= 0 && idx < len(x) {
				sum += x[idx] * kv
			}
		}
		out[i] = sum
	}
	return out
}

// checkQuantile holds got to quantileSort's value want at the contract
// level: both NaN, or ==, and identical bits when nonzero.
func checkQuantile(t *testing.T, label string, got, want float64) {
	t.Helper()
	switch {
	case math.IsNaN(want) || math.IsNaN(got):
		if !math.IsNaN(want) || !math.IsNaN(got) {
			t.Fatalf("%s: got %v, want %v", label, got, want)
		}
	case got != want:
		t.Fatalf("%s: got %v, want %v", label, got, want)
	case want != 0 && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%s: got bits %#x, want %#x", label, math.Float64bits(got), math.Float64bits(want))
	}
}

// fuzzAlphabet maps the low byte values of FuzzQuantileMatchesSort's
// input to the values a sort-based oracle is easiest to disagree with.
var fuzzAlphabet = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 0.5,
}

// FuzzQuantileMatchesSort holds Quantile to the sort-based oracle on
// arbitrary inputs. Each input byte is one element: bytes below
// len(fuzzAlphabet) pick NaN, ±Inf, ±0 and other edge values, the rest
// map to a few dozen small values, so duplicates and ties are the
// norm. The seed corpus covers lengths 1-3 and lengths past
// selectCutoff, and q at 0, 1 and interior points.
func FuzzQuantileMatchesSort(f *testing.F) {
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte(i * 37)
	}
	zeros := make([]byte, 64)
	for i := range zeros {
		zeros[i] = byte(3 + i%2) // alternating +0 and -0
	}
	for _, data := range [][]byte{{}, {20}, {0}, {3, 4}, {4, 3, 40}, {0, 1, 2}, long, zeros} {
		for _, q := range []float64{0, 1, 0.5, 0.05, 0.95, 0.99, 1.0 / 3} {
			f.Add(data, q)
		}
	}
	f.Add(long, -0.5)
	f.Add(long, 1.5)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) || len(data) == 0 {
			return
		}
		x := make([]float64, len(data))
		for i, b := range data {
			if int(b) < len(fuzzAlphabet) {
				x[i] = fuzzAlphabet[b]
			} else {
				x[i] = float64(int(b)%32-16) / 4
			}
		}
		in := append([]float64(nil), x...)
		checkQuantile(t, fmt.Sprintf("n=%d q=%v", len(x), q), Quantile(x, q), quantileSort(x, q))
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(in[i]) {
				t.Fatalf("Quantile modified x[%d]", i)
			}
		}
	})
}

// TestQuantileMatchesSortRandom covers what the fuzz corpus cannot:
// long random inputs with full-precision values and raw bit patterns.
func TestQuantileMatchesSortRandom(t *testing.T) {
	rng := xrand.New(41)
	qs := []float64{0, 0.05, 0.1, 0.15, 0.25, 0.5, 0.95, 0.98, 0.99, 1}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(3000)
		x := make([]float64, n)
		for i := range x {
			switch trial % 4 {
			case 0:
				x[i] = rng.Normal(0, 1)
			case 1:
				x[i] = float64(rng.Intn(5))
			case 2:
				x[i] = math.Float64frombits(uint64(rng.Int63())<<1 ^ uint64(rng.Int63()))
			default:
				x[i] = math.Abs(rng.Normal(0, 1e-300))
			}
		}
		for _, q := range append(qs, rng.Float64()) {
			checkQuantile(t, fmt.Sprintf("trial %d n=%d q=%v", trial, n, q), Quantile(x, q), quantileSort(x, q))
		}
	}
}

// TestQuantileAdversarial runs the patterns that defeat naive
// partitioning at 1<<20 elements: presorted, reversed, all equal, long
// zero runs (what dropped USB blocks leave in a trace), and organ pipe.
func TestQuantileAdversarial(t *testing.T) {
	const n = 1 << 20
	rng := xrand.New(7)
	patterns := []struct {
		name string
		gen  func(i int) float64
	}{
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(n - i) }},
		{"all-equal", func(int) float64 { return 3 }},
		{"zero-runs", func(i int) float64 {
			if (i/4096)%3 != 2 {
				return 0
			}
			return rng.Normal(0, 1)
		}},
		{"organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) }},
	}
	for _, pat := range patterns {
		x := make([]float64, n)
		for i := range x {
			x[i] = pat.gen(i)
		}
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.05, 0.5, 0.95, 0.99, 1} {
			checkQuantile(t, fmt.Sprintf("%s q=%v", pat.name, q), Quantile(x, q), quantileSorted(sorted, q))
		}
	}
}

// TestSelectNthPartitions checks selectNth's partition invariant, which
// Quantile's value checks cannot see.
func TestSelectNthPartitions(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 200; trial++ {
		s := make([]float64, 1+rng.Intn(500))
		for i := range s {
			s[i] = float64(rng.Intn(40))
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		n := rng.Intn(len(s))
		selectNth(s, n)
		if s[n] != sorted[n] {
			t.Fatalf("trial %d: s[%d] = %v, want %v", trial, n, s[n], sorted[n])
		}
		for i, v := range s {
			if (i < n && v > s[n]) || (i > n && v < s[n]) {
				t.Fatalf("trial %d: s[%d] = %v on the wrong side of s[%d] = %v", trial, i, v, n, s[n])
			}
		}
	}
}

// TestConvolveMatchesOracle holds the blocked convolution to the
// one-output-at-a-time oracle under Float64bits, over every kernel
// length from 1 to 65 (random taps, EdgeKernel at even lengths, and all
// -1 taps over zero-heavy signals, whose products are -0: a sum that
// did not start from +0 would show), signals shorter and longer than
// the kernel, worker counts 1/2/3/8, and explicit partitions whose
// boundaries fall inside the edge regions and inside four-output
// blocks.
func TestConvolveMatchesOracle(t *testing.T) {
	t.Cleanup(func() { SetDefaultParallelism(0) })
	rng := xrand.New(11)
	for kl := 1; kl <= 65; kl++ {
		kernels := [][]float64{realSignal(kl, int64(kl))}
		if kl%2 == 0 {
			kernels = append(kernels, EdgeKernel(kl))
		}
		neg := make([]float64, kl)
		for j := range neg {
			neg[j] = -1
		}
		kernels = append(kernels, neg)
		for ki, k := range kernels {
			for _, xl := range []int{0, 1, kl / 2, kl - 1, kl, kl + 1, kl + 3, kl + 4, 2*kl + 7, 300} {
				x := realSignal(xl, int64(1000*kl+xl))
				if ki == len(kernels)-1 {
					for i := range x {
						if i%3 != 0 {
							x[i] = 0
						}
					}
				}
				label := fmt.Sprintf("k=%d#%d x=%d", kl, ki, xl)
				want := convolveReference(x, k)
				for _, p := range []int{1, 2, 3, 8} {
					SetDefaultParallelism(p)
					floatBitEqual(t, fmt.Sprintf("%s P=%d", label, p), Convolve(x, k), want)
				}
				// Random partitions: boundaries anywhere, including
				// inside the edges and mid-block.
				out := make([]float64, xl)
				for lo := 0; lo < xl; {
					hi := min(xl, lo+1+rng.Intn(kl+5))
					convolveRange(out, x, k, lo, hi)
					lo = hi
				}
				floatBitEqual(t, label+" partitioned", out, want)
			}
		}
	}
}

// TestFindPeaksMatchesOracle holds neighbour suppression to the
// all-candidates scan under reflect.DeepEqual (same kept set, same
// order, nil for none): quantized signals full of plateaus and equal
// heights, edge-convolved noise, minDist <= 0 through wider than the
// signal, and minHeight below, at and above zero.
func TestFindPeaksMatchesOracle(t *testing.T) {
	rng := xrand.New(5)
	var signals [][]float64
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		x := make([]float64, n)
		levels := 1 + rng.Intn(6)
		for i := range x {
			x[i] = float64(rng.Intn(levels)) - 1
			if trial%3 == 0 && i > 0 && rng.Intn(3) > 0 {
				x[i] = x[i-1] // long plateaus
			}
		}
		signals = append(signals, x)
	}
	for _, n := range []int{50, 2000} {
		signals = append(signals, Convolve(realSignal(n, int64(n)), EdgeKernel(20)))
	}
	signals = append(signals, nil, []float64{2}, []float64{1, 1, 1, 1})
	for si, x := range signals {
		for _, minDist := range []int{-3, 0, 1, 2, 3, 7, 40, 500} {
			for _, minHeight := range []float64{math.Inf(-1), -1.5, -1, 0, 0.5, 1, 3} {
				got := FindPeaks(x, minDist, minHeight)
				want := findPeaksReference(x, minDist, minHeight)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("signal %d (n=%d) minDist=%d minHeight=%v: got %v, want %v",
						si, len(x), minDist, minHeight, got, want)
				}
			}
		}
	}
}
