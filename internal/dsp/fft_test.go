package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"pmuleak/internal/xrand"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024, 1 << 20} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := [][2]int{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {1024, 1024}, {1025, 2048}}
	for _, c := range cases {
		if got := NextPowerOfTwo(c[0]); got != c[1] {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is flat ones.
	x := make([]complex128, 16)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if !approxEqual(real(v), 1, 1e-12) || !approxEqual(imag(v), 0, 1e-12) {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k concentrates all energy in bin k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(i)/float64(n)))
	}
	FFT(x)
	for i, v := range x {
		want := 0.0
		if i == k {
			want = float64(n)
		}
		if !approxEqual(cmplx.Abs(v), want, 1e-9) {
			t.Fatalf("bin %d magnitude = %v, want %v", i, cmplx.Abs(v), want)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := xrand.New(1)
	const n = 128
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
		b[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
		sum[i] = a[i] + b[i]
	}
	FFT(a)
	FFT(b)
	FFT(sum)
	for i := range sum {
		if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := xrand.New(2)
	for _, n := range []int{1, 2, 8, 256, 4096} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
			orig[i] = x[i]
		}
		FFT(x)
		inverseOracle(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := xrand.New(3)
	const n = 512
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
		timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	FFT(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= n
	if !approxEqual(timeEnergy, freqEnergy, 1e-6*timeEnergy) {
		t.Fatalf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 6 did not panic")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestFFTReal(t *testing.T) {
	// Real cosine at bin k splits into bins k and n-k.
	const n, k = 32, 3
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k)*float64(i)/float64(n)), 0)
	}
	FFT(x)
	for i, v := range x {
		want := 0.0
		if i == k || i == n-k {
			want = float64(n) / 2
		}
		if m := cmplx.Abs(v); !approxEqual(m, want, 1e-9) {
			t.Fatalf("bin %d magnitude = %v, want %v", i, m, want)
		}
	}
}

// TestFFTRealInputConjugateSymmetry pins what the reflected upper
// quadrant of the twiddle tables buys: the spectrum of a real signal is
// conjugate-symmetric value-exactly (X[n-k] == conj(X[k]) under ==,
// which identifies ±0), with purely real DC and Nyquist bins, not just
// to within rounding.
func TestFFTRealInputConjugateSymmetry(t *testing.T) {
	for _, n := range []int{2, 8, 64, 1024} {
		spec := realInComplex(realSignal(n, int64(n)+33))
		FFT(spec)
		if imag(spec[0]) != 0 {
			t.Fatalf("n=%d: DC bin not real: %v", n, spec[0])
		}
		if imag(spec[n/2]) != 0 {
			t.Fatalf("n=%d: Nyquist bin not real: %v", n, spec[n/2])
		}
		for k := 1; k < n/2; k++ {
			if c := cmplx.Conj(spec[k]); spec[n-k] != c {
				t.Fatalf("n=%d bin %d: %v != conj mirror %v", n, n-k, spec[n-k], c)
			}
		}
	}
}

// TestParseval checks energy conservation sum|x|^2 == (1/n)·sum|X|^2
// for complex and for real-valued input.
func TestParseval(t *testing.T) {
	for _, n := range []int{2, 16, 256, 2048} {
		for _, x := range [][]complex128{
			realInComplex(realSignal(n, int64(n)+13)),
			randComplex(n, int64(n)+14),
		} {
			var timeE float64
			for _, v := range x {
				timeE += real(v)*real(v) + imag(v)*imag(v)
			}
			FFT(x)
			var freqE float64
			for _, v := range x {
				freqE += real(v)*real(v) + imag(v)*imag(v)
			}
			freqE /= float64(n)
			if d := math.Abs(timeE - freqE); d > 1e-9*timeE {
				t.Fatalf("n=%d: Parseval violated: %g vs %g", n, timeE, freqE)
			}
		}
	}
}

func TestBinFrequencyRoundTrip(t *testing.T) {
	const n = 1024
	const sr = 2.4e6
	for _, f := range []float64{0, 100e3, 970e3, -430e3, -1.1e6} {
		bin := FrequencyBin(f, n, sr)
		got := BinFrequency(bin, n, sr)
		if math.Abs(got-f) > sr/n/2+1e-9 {
			t.Errorf("f=%v: bin %d maps back to %v", f, bin, got)
		}
	}
}

func TestBinFrequencyNegativeHalf(t *testing.T) {
	// Bin n/2 and above are negative frequencies for IQ data.
	if f := BinFrequency(512, 1024, 2.4e6); f >= 0 {
		t.Errorf("bin 512 frequency = %v, want negative", f)
	}
	if f := BinFrequency(100, 1024, 2.4e6); f <= 0 {
		t.Errorf("bin 100 frequency = %v, want positive", f)
	}
}
