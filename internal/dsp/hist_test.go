package dsp

import (
	"math"
	"testing"

	"pmuleak/internal/xrand"
)

func TestHistogramBinning(t *testing.T) {
	x := []float64{0, 0.1, 0.9, 1.0, 0.5}
	h := NewHistogram(x, 2)
	// Range [0,1]: first bin [0,0.5), second [0.5,1].
	if h.Counts[0] != 2 || h.Counts[1] != 3 {
		t.Fatalf("Counts = %v", h.Counts)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram([]float64{5, 5, 5}, 4)
	var total float64
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("lost samples: %v", h.Counts)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil, 3)
	for _, c := range h.Counts {
		if c != 0 {
			t.Fatalf("empty histogram has counts %v", h.Counts)
		}
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := &Histogram{Counts: make([]float64, 4), Lo: 0, Hi: 8}
	if c := h.BinCenter(0); !approxEqual(c, 1, 1e-12) {
		t.Errorf("BinCenter(0) = %v", c)
	}
	if c := h.BinCenter(3); !approxEqual(c, 7, 1e-12) {
		t.Errorf("BinCenter(3) = %v", c)
	}
}

func TestModesBimodal(t *testing.T) {
	rng := xrand.New(31)
	x := make([]float64, 0, 20000)
	for i := 0; i < 10000; i++ {
		x = append(x, rng.Normal(2, 0.3))
		x = append(x, rng.Normal(8, 0.3))
	}
	lo, hi, ok := NewHistogram(x, 100).Smoothed(3).Modes()
	if !ok {
		t.Fatal("bimodal data: Modes reported not ok")
	}
	if math.Abs(lo-2) > 0.5 || math.Abs(hi-8) > 0.5 {
		t.Fatalf("modes = %v, %v, want ~2 and ~8", lo, hi)
	}
}

func TestBimodalThresholdSeparates(t *testing.T) {
	rng := xrand.New(32)
	var x []float64
	for i := 0; i < 5000; i++ {
		x = append(x, rng.Normal(1, 0.2), rng.Normal(9, 0.2))
	}
	thr := BimodalThreshold(x, 100)
	// The valley between the populations spans ~1.6..8.4; ties among
	// empty valley bins break toward the geometric mean (3).
	if thr < 1.8 || thr > 8.2 {
		t.Fatalf("threshold = %v, want inside the valley", thr)
	}
}

func TestBimodalThresholdUnimodalFallback(t *testing.T) {
	rng := xrand.New(33)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.Normal(5, 0.1)
	}
	thr := BimodalThreshold(x, 50)
	if thr < 4 || thr > 6 {
		t.Fatalf("unimodal fallback threshold = %v", thr)
	}
}

func TestBimodalThresholdEmpty(t *testing.T) {
	if thr := BimodalThreshold(nil, 10); thr != 0 {
		t.Fatalf("empty threshold = %v", thr)
	}
}

func TestFindPeaksBasic(t *testing.T) {
	x := []float64{0, 1, 0, 2, 0, 3, 0}
	peaks := FindPeaks(x, 1, 0.5)
	want := []int{1, 3, 5}
	if len(peaks) != len(want) {
		t.Fatalf("peaks = %v", peaks)
	}
	for i := range want {
		if peaks[i] != want[i] {
			t.Fatalf("peaks = %v, want %v", peaks, want)
		}
	}
}

func TestFindPeaksMinHeight(t *testing.T) {
	x := []float64{0, 1, 0, 5, 0}
	peaks := FindPeaks(x, 1, 2)
	if len(peaks) != 1 || peaks[0] != 3 {
		t.Fatalf("peaks = %v", peaks)
	}
}

func TestFindPeaksMinDistanceKeepsTaller(t *testing.T) {
	x := []float64{0, 3, 0, 5, 0, 0, 0, 0}
	peaks := FindPeaks(x, 4, 0)
	if len(peaks) != 1 || peaks[0] != 3 {
		t.Fatalf("peaks = %v, want just the taller one at 3", peaks)
	}
}

func TestFindPeaksPlateau(t *testing.T) {
	x := []float64{0, 2, 2, 2, 0}
	peaks := FindPeaks(x, 1, 0)
	if len(peaks) != 1 || peaks[0] != 1 {
		t.Fatalf("plateau peaks = %v, want [1]", peaks)
	}
}

func TestFindPeaksEmptyAndFlat(t *testing.T) {
	if p := FindPeaks(nil, 1, 0); p != nil {
		t.Errorf("FindPeaks(nil) = %v", p)
	}
	// A constant signal has a plateau "peak" only at index 0.
	p := FindPeaks([]float64{1, 1, 1, 1}, 1, 0)
	if len(p) != 1 || p[0] != 0 {
		t.Errorf("flat peaks = %v", p)
	}
}

func TestThresholdCrossings(t *testing.T) {
	x := []float64{0, 5, 5, 0, 0, 7, 7, 7}
	iv := ThresholdCrossings(x, 1)
	if len(iv) != 2 {
		t.Fatalf("intervals = %v", iv)
	}
	if iv[0] != [2]int{1, 3} || iv[1] != [2]int{5, 8} {
		t.Fatalf("intervals = %v", iv)
	}
}

func TestThresholdCrossingsNone(t *testing.T) {
	if iv := ThresholdCrossings([]float64{0, 0.5, 0}, 1); iv != nil {
		t.Fatalf("intervals = %v", iv)
	}
}

func TestMergeIntervals(t *testing.T) {
	iv := [][2]int{{0, 5}, {7, 10}, {30, 35}}
	merged := MergeIntervals(iv, 3)
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
	if merged[0] != [2]int{0, 10} || merged[1] != [2]int{30, 35} {
		t.Fatalf("merged = %v", merged)
	}
}

func TestMergeIntervalsEmpty(t *testing.T) {
	if m := MergeIntervals(nil, 1); m != nil {
		t.Fatalf("merged = %v", m)
	}
}

func TestFilterIntervals(t *testing.T) {
	iv := [][2]int{{0, 2}, {10, 20}, {30, 33}}
	out := FilterIntervals(iv, 5)
	if len(out) != 1 || out[0] != [2]int{10, 20} {
		t.Fatalf("filtered = %v", out)
	}
}
