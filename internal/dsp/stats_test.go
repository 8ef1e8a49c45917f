package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"pmuleak/internal/xrand"
)

func TestMeanVarianceStddev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); !approxEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(x); !approxEqual(v, 4, 1e-12) {
		t.Errorf("Variance = %v", v)
	}
	if s := Stddev(x); !approxEqual(s, 2, 1e-12) {
		t.Errorf("Stddev = %v", s)
	}
}

func TestEmptyStats(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || MeanPower(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input stats not zero")
	}
	if _, i := Max(nil); i != -1 {
		t.Error("Max(nil) index != -1")
	}
	if _, i := Min(nil); i != -1 {
		t.Error("Min(nil) index != -1")
	}
}

func TestMeanPower(t *testing.T) {
	x := []float64{1, -2, 3}
	if got := MeanPower(x); !approxEqual(got, 14.0/3, 1e-12) {
		t.Errorf("MeanPower = %v", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); !approxEqual(m, 2, 1e-12) {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); !approxEqual(m, 2.5, 1e-12) {
		t.Errorf("even median = %v", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	x := []float64{5, 1, 4}
	Median(x)
	if x[0] != 5 || x[1] != 1 || x[2] != 4 {
		t.Fatalf("Median mutated input: %v", x)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 10}, {0.5, 5}, {0.25, 2.5}, {0.9, 9},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); !approxEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Out-of-range q clamps.
	if got := Quantile(x, -1); got != 0 {
		t.Errorf("Quantile(-1) = %v", got)
	}
	if got := Quantile(x, 2); got != 10 {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		x := make([]float64, 1+rng.Intn(100))
		for i := range x {
			x[i] = rng.Normal(0, 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(x, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	x := []float64{3, 9, -4, 9, 0}
	if v, i := Max(x); v != 9 || i != 1 {
		t.Errorf("Max = %v at %d", v, i)
	}
	if v, i := Min(x); v != -4 || i != 2 {
		t.Errorf("Min = %v at %d", v, i)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{-4, 2, 1}
	Normalize(x)
	if !approxEqual(x[0], -1, 1e-12) || !approxEqual(x[1], 0.5, 1e-12) {
		t.Fatalf("Normalize = %v", x)
	}
	zero := []float64{0, 0}
	Normalize(zero) // must not divide by zero
	if zero[0] != 0 {
		t.Fatal("Normalize changed zero signal")
	}
}

func TestSkewnessSigns(t *testing.T) {
	rng := xrand.New(20)
	sym := make([]float64, 50000)
	skewed := make([]float64, 50000)
	for i := range sym {
		sym[i] = rng.Normal(0, 1)
		skewed[i] = rng.Rayleigh(1)
	}
	if s := Skewness(sym); math.Abs(s) > 0.1 {
		t.Errorf("normal skewness = %v, want ~0", s)
	}
	if s := Skewness(skewed); s < 0.4 {
		t.Errorf("Rayleigh skewness = %v, want positive", s)
	}
}

func TestRayleighFitRecoversSigma(t *testing.T) {
	rng := xrand.New(21)
	const sigma = 3.7
	x := make([]float64, 100000)
	for i := range x {
		x[i] = rng.Rayleigh(sigma)
	}
	got := RayleighFit(x)
	if math.Abs(got-sigma) > 0.05 {
		t.Fatalf("RayleighFit = %v, want ~%v", got, sigma)
	}
}
