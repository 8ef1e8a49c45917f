package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"pmuleak/internal/xrand"
)

// slidingDFT evaluates the paper's Eq. (1) acquisition efficiently: for a
// set S of frequency bins, it computes
//
//	Y[n] = sum over k in S of |F_n[k]|
//
// where F_n[k] is the M-point DFT of the window of samples ending at n.
// A direct STFT with hop 1 ("maximum overlapping") costs O(N·M log M);
// the sliding DFT updates each tracked bin recursively in O(1) per
// sample, so the whole acquisition is O(N·|S|).
//
// The output has len(x) - m + 1 entries: Y[0] corresponds to the window
// x[0:m]. The receivers track the spikes with resonators instead
// (resonator.go), which follow off-grid frequencies at full amplitude;
// this literal Eq. (1) is kept as a test reference.
func slidingDFT(x []complex128, m int, bins []int) []float64 {
	if m <= 0 {
		panic("dsp: slidingDFT window must be positive")
	}
	if len(x) < m {
		return nil
	}
	// Twiddle per bin: e^{+2πi k / M} (advance of the window by one
	// sample rotates each bin by this factor).
	tw := make([]complex128, len(bins))
	acc := make([]complex128, len(bins))
	for i, k := range bins {
		tw[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)/float64(m)))
	}
	// exact computes bin k of the M-point DFT of the window starting
	// at offset start.
	exact := func(start, k int) complex128 {
		var sum complex128
		w := complex(1, 0)
		step := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(m)))
		for j := 0; j < m; j++ {
			sum += x[start+j] * w
			w *= step
		}
		return sum
	}
	for i, k := range bins {
		acc[i] = exact(0, k)
	}
	out := make([]float64, len(x)-m+1)
	sumAbs := func() float64 {
		var s float64
		for _, a := range acc {
			s += cmplx.Abs(a)
		}
		return s
	}
	out[0] = sumAbs()
	// Recursive update. Every renormEvery samples, recompute the bins
	// exactly to stop floating-point drift from accumulating over
	// millions of updates.
	const renormEvery = 1 << 15
	for n := 1; n < len(out); n++ {
		oldest := x[n-1]
		newest := x[n+m-1]
		for i := range bins {
			acc[i] = (acc[i] - oldest + newest) * tw[i]
		}
		if n%renormEvery == 0 {
			for i, k := range bins {
				acc[i] = exact(n, k)
			}
		}
		out[n] = sumAbs()
	}
	return out
}

func TestSlidingDFTMatchesDirect(t *testing.T) {
	rng := xrand.New(7)
	const n, m = 700, 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	bins := []int{3, 17}
	got := slidingDFT(x, m, bins)
	if len(got) != n-m+1 {
		t.Fatalf("length = %d, want %d", len(got), n-m+1)
	}
	// Direct computation for a few windows.
	for _, start := range []int{0, 1, 5, 300, n - m} {
		var want float64
		for _, k := range bins {
			var sum complex128
			for j := 0; j < m; j++ {
				angle := -2 * math.Pi * float64(k) * float64(j) / float64(m)
				sum += x[start+j] * cmplx.Exp(complex(0, angle))
			}
			want += cmplx.Abs(sum)
		}
		if !approxEqual(got[start], want, 1e-6*(want+1)) {
			t.Fatalf("window %d: got %v want %v", start, got[start], want)
		}
	}
}

func TestSlidingDFTShortInput(t *testing.T) {
	if out := slidingDFT(make([]complex128, 10), 64, []int{0}); out != nil {
		t.Fatalf("short input should return nil, got len %d", len(out))
	}
}

func TestSlidingDFTStableOverLongRuns(t *testing.T) {
	// Drift check: after many recursive updates the value must still
	// match a direct computation (the renormalization path).
	rng := xrand.New(8)
	const n, m = 100000, 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	bins := []int{5}
	got := slidingDFT(x, m, bins)
	start := n - m // last window
	var sum complex128
	for j := 0; j < m; j++ {
		angle := -2 * math.Pi * float64(bins[0]) * float64(j) / float64(m)
		sum += x[start+j] * cmplx.Exp(complex(0, angle))
	}
	want := cmplx.Abs(sum)
	if !approxEqual(got[start], want, 1e-6*(want+1)) {
		t.Fatalf("drift after long run: got %v want %v", got[start], want)
	}
}

func BenchmarkSlidingDFT(b *testing.B) {
	rng := xrand.New(3)
	x := make([]complex128, 1<<15)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slidingDFT(x, 1024, []int{207, 817})
	}
}
