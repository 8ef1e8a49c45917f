package dsp

import (
	"math"
	"testing"

	"pmuleak/internal/xrand"
)

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	got := Convolve(x, []float64{1})
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity convolution changed signal: %v", got)
		}
	}
}

func TestConvolveBoxcar(t *testing.T) {
	x := []float64{0, 0, 3, 0, 0}
	got := Convolve(x, []float64{1, 1, 1})
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestConvolveEmptyKernel(t *testing.T) {
	got := Convolve([]float64{1, 2}, nil)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty kernel should produce zeros, got %v", got)
	}
}

func TestEdgeKernelShape(t *testing.T) {
	k := EdgeKernel(6)
	want := []float64{-1, -1, -1, 1, 1, 1}
	for i := range want {
		if k[i] != want[i] {
			t.Fatalf("EdgeKernel(6) = %v", k)
		}
	}
}

func TestEdgeKernelOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd EdgeKernel did not panic")
		}
	}()
	EdgeKernel(5)
}

func TestEdgeDetectionPeaksAtStep(t *testing.T) {
	// A step at index 50 must produce the convolution maximum there.
	x := make([]float64, 100)
	for i := 50; i < 100; i++ {
		x[i] = 1
	}
	conv := Convolve(x, EdgeKernel(10))
	_, peak := Max(conv)
	if peak < 48 || peak > 52 {
		t.Fatalf("edge peak at %d, want ~50", peak)
	}
}

func TestEdgeDetectionIgnoresFlat(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 5
	}
	conv := Convolve(x, EdgeKernel(8))
	for i := 10; i < 90; i++ {
		if math.Abs(conv[i]) > 1e-9 {
			t.Fatalf("flat signal produced edge response %v at %d", conv[i], i)
		}
	}
}

func TestMovingAverageMatchesConvolve(t *testing.T) {
	rng := xrand.New(9)
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	for _, w := range []int{1, 3, 7, 10} {
		fast := MovingAverage(x, w)
		slow := Convolve(x, BoxcarKernel(w))
		// They agree exactly away from the edges (edge normalization
		// differs: MovingAverage still divides by w).
		for i := w; i < len(x)-w; i++ {
			if math.Abs(fast[i]-slow[i]) > 1e-9 {
				t.Fatalf("w=%d mismatch at %d: %v vs %v", w, i, fast[i], slow[i])
			}
		}
	}
}

func TestMovingAverageConstant(t *testing.T) {
	x := []float64{2, 2, 2, 2, 2, 2}
	got := MovingAverage(x, 3)
	// Interior points average a full window of 2s.
	for i := 1; i < 5; i++ {
		if !approxEqual(got[i], 2, 1e-12) {
			t.Fatalf("MovingAverage interior = %v", got)
		}
	}
}
