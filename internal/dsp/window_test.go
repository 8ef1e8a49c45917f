package dsp

import (
	"math"
	"testing"
)

// The window property table. COLA here is the engineering fact the STFT
// pipeline relies on, stated honestly for symmetric (n-1 denominator)
// windows: overlap-added at the listed hop they sum to a constant only
// up to a ripple that shrinks like 1/n (a periodic window would cancel
// exactly; the symmetric variant repeats its first sample one hop
// early). The measured constants are ~1.6/n for Hann at 50% overlap
// and ~0.1/n for Blackman at 75% overlap, so the bounds below hold
// with >2x margin at every size while still catching a wrong
// coefficient, which shifts the sum by O(1).
var windowCases = []struct {
	name string
	fn   func(int) []float64
	// hopDiv is the COLA hop divisor (hop = n/hopDiv).
	hopDiv int
	// olaMean is the expected overlap-add level; 2/n tolerance.
	olaMean float64
	// rippleN bounds the relative overlap-add ripple times n.
	rippleN float64
	// endpoint is the expected w[0] (== w[n-1]); 1e-12 tolerance.
	endpoint float64
}{
	{"hann", Hann, 2, 1.0, 4, 0},
	{"blackman", Blackman, 4, 1.68, 1, 0},
}

// TestWindowInvariants checks, for every window and a spread of sizes:
// symmetry, range, endpoints, a unit peak at the center, and the COLA
// (constant-overlap-add) level and ripple at the window's natural hop.
func TestWindowInvariants(t *testing.T) {
	for _, tc := range windowCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 8, 16, 63, 64, 256, 1024} {
				w := tc.fn(n)
				if len(w) != n {
					t.Fatalf("n=%d: returned %d samples", n, len(w))
				}
				for i, v := range w {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("n=%d sample %d not finite: %v", n, i, v)
					}
					// Blackman's endpoints can round a hair below zero
					// (0.42-0.5+0.08 is not exactly representable).
					if v < -1e-12 || v > 1+1e-12 {
						t.Fatalf("n=%d sample %d out of range: %v", n, i, v)
					}
				}
				// Symmetry: w[i] == w[n-1-i]. Not bitwise — the two cos
				// arguments round differently — but far below anything a
				// spectral estimate can see.
				for i := 0; i < n/2; i++ {
					if d := math.Abs(w[i] - w[n-1-i]); d > 1e-9 {
						t.Fatalf("n=%d: w[%d]=%v vs w[%d]=%v", n, i, w[i], n-1-i, w[n-1-i])
					}
				}
				if n == 1 {
					if w[0] != 1 {
						t.Fatalf("n=1 window %v != [1]", w)
					}
					continue
				}
				if d := math.Abs(w[0] - tc.endpoint); d > 1e-12 {
					t.Fatalf("n=%d: endpoint %v, want %v", n, w[0], tc.endpoint)
				}
				// Peak shape. Only odd sizes sample the continuous maximum
				// exactly (even sizes straddle it, so their peak sits below
				// 1 by O(1/n^2) and n=2 is nothing but endpoints); for every
				// size the first half must rise monotonically to the center,
				// which is what a wrong coefficient or sign breaks first.
				if n%2 == 1 && math.Abs(w[n/2]-1) > 1e-9 {
					t.Fatalf("n=%d: center %v, want 1", n, w[n/2])
				}
				for i := 1; i <= n/2; i++ {
					if w[i] < w[i-1]-1e-12 {
						t.Fatalf("n=%d: not unimodal: w[%d]=%v < w[%d]=%v",
							n, i, w[i], i-1, w[i-1])
					}
				}

				// COLA at the window's natural hop. Power-of-two sizes
				// only: that is the only shape the STFT pipeline can use,
				// and at odd n the truncated hop n/2 no longer bisects
				// the window, which turns the smooth 1/n drift into
				// endpoint spikes that say nothing about the pipeline.
				hop := n / tc.hopDiv
				if hop == 0 || !IsPowerOfTwo(n) || n < 2*tc.hopDiv {
					continue
				}
				mean, rel := overlapAdd(w, hop)
				if d := math.Abs(mean - tc.olaMean); d > 2/float64(n) {
					t.Fatalf("n=%d hop=%d: OLA mean %v, want %v±%v", n, hop, mean, tc.olaMean, 2/float64(n))
				}
				if limit := tc.rippleN / float64(n); rel > limit && tc.rippleN > 0 {
					t.Fatalf("n=%d hop=%d: OLA ripple %v > %v", n, hop, rel, limit)
				}
				if tc.rippleN == 0 && rel != 0 {
					t.Fatalf("n=%d hop=%d: exact-COLA window has ripple %v", n, hop, rel)
				}
			}
		})
	}
}

// overlapAdd sums shifted copies of w at the given hop over a long
// span and reports the mean level and relative peak-to-peak ripple of
// the central (fully covered) region.
func overlapAdd(w []float64, hop int) (mean, rel float64) {
	n := len(w)
	span := n * 8
	sum := make([]float64, span)
	for s := 0; s+n <= span; s += hop {
		for i, v := range w {
			sum[s+i] += v
		}
	}
	lo, hi := n, span-n
	mn, mx := math.Inf(1), math.Inf(-1)
	for i := lo; i < hi; i++ {
		v := sum[i]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		mean += v
	}
	mean /= float64(hi - lo)
	return mean, (mx - mn) / mean
}

// TestHannSizeTwoIsZero pins a boundary quirk the Welch code inherits:
// the symmetric Hann of length 2 is identically zero (both samples sit
// on the window's zero endpoints), so WelchPSD at fftSize 2 — the
// smallest size it accepts — is all zeros by construction, not by
// accident. See TestWelchPSDFFTSizeTwo.
func TestHannSizeTwoIsZero(t *testing.T) {
	w := Hann(2)
	if w[0] != 0 || w[1] != 0 {
		t.Fatalf("Hann(2) = %v, want [0 0]", w)
	}
}

// TestApplyWindowMatchesGather pins the equivalence the fused gather
// relies on: multiplying a complex frame by (w, 0) is what ApplyWindow
// does, and the gather performs the identical complex multiply.
func TestApplyWindowMatchesGather(t *testing.T) {
	const n = 256
	x := randComplex(n, 5)
	w := Hann(n)
	ref := append([]complex128(nil), x...)
	ApplyWindow(ref, w)
	for i := range x {
		if got := x[i] * complex(w[i], 0); got != ref[i] {
			t.Fatalf("sample %d: %v != %v", i, got, ref[i])
		}
	}
}
