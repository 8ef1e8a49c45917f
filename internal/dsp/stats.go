package dsp

import (
	"cmp"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var sum float64
	for _, v := range x {
		d := v - m
		sum += d * d
	}
	return sum / float64(len(x))
}

// Stddev returns the population standard deviation of x.
func Stddev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MeanPower returns the average of v^2 over x — the per-bit decision
// statistic of the paper's Eq. (2).
func MeanPower(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return sum / float64(len(x))
}

// Median returns the median of x without modifying it.
func Median(x []float64) float64 {
	return Quantile(x, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics. x is not modified.
//
// The order statistics are selected, not sorted for: selectNth places
// the lower one in a copy of x, and the upper one is the least element
// above it. The result equals (==) what sorting the copy with
// sort.Float64s would give, or is NaN where that is; only the sign of a
// zero can differ, when -0 and +0 tie for a selected rank.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), x...)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectNth(s, lo)
	if lo == hi {
		return s[lo]
	}
	// Nothing past lo is less than s[lo], so the sorted s[hi] is the
	// least of s[hi:].
	up := s[hi]
	for _, v := range s[hi+1:] {
		if cmp.Less(v, up) {
			up = v
		}
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + up*frac
}

// selectCutoff is the longest range selectNth sorts instead of
// partitioning.
const selectCutoff = 16

// selectNth reorders s so that s[n] holds the value sort.Float64s would
// put there, nothing before it is greater and nothing after it is less,
// in sort.Float64s's order (cmp.Less: NaNs first, -0 equal to +0). It
// is an introselect: median-of-three Hoare partitioning, where elements
// equal to the pivot stop both scans so that runs of equal values split
// evenly, falling back to sort.Float64s on short ranges and past a
// depth bound, which keeps the worst case O(n log n).
func selectNth(s []float64, n int) {
	lo, hi := 0, len(s)-1
	for depth := 2 * bits.Len(uint(len(s))); hi-lo >= selectCutoff && depth > 0; depth-- {
		// Order s[lo], s[mid], s[hi]; the median at mid is the pivot.
		mid := lo + (hi-lo)/2
		if cmp.Less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmp.Less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
			if cmp.Less(s[mid], s[lo]) {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		p := s[mid]
		i, j := lo-1, hi+1
		for {
			i++
			for cmp.Less(s[i], p) {
				i++
			}
			j--
			for cmp.Less(p, s[j]) {
				j--
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		// Now s[lo:j+1] <= p <= s[j+1:hi+1], with lo <= j < hi.
		if n <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	sort.Float64s(s[lo : hi+1])
}

// MAD returns the median absolute deviation of x — a robust spread
// estimate. Multiply by 1.4826 to estimate a Gaussian sigma.
func MAD(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Median(x)
	dev := make([]float64, len(x))
	for i, v := range x {
		dev[i] = math.Abs(v - m)
	}
	return Median(dev)
}

// Max returns the maximum value of x and its index (-1 for empty input).
func Max(x []float64) (float64, int) {
	if len(x) == 0 {
		return 0, -1
	}
	best, idx := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return best, idx
}

// Min returns the minimum value of x and its index (-1 for empty input).
func Min(x []float64) (float64, int) {
	if len(x) == 0 {
		return 0, -1
	}
	best, idx := x[0], 0
	for i, v := range x[1:] {
		if v < best {
			best, idx = v, i+1
		}
	}
	return best, idx
}

// Normalize scales x in place so its maximum absolute value is 1.
// A zero signal is left unchanged.
func Normalize(x []float64) {
	var peak float64
	for _, v := range x {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return
	}
	for i := range x {
		x[i] /= peak
	}
}
