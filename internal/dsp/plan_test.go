package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"testing"

	"pmuleak/internal/xrand"
)

// referenceFFT is a frozen copy of the reference serial radix-2
// implementation with the symmetric twiddle tables: per-entry cos/sin
// with fw[0] = (1,0), fw[quarter] = (0,-1) and fw[half-k] = -conj(fw[k])
// enforced bit-exactly, one butterfly per (stage, column) in stage
// order. Every production transform — planned, fused, and windowed —
// is required to reproduce its output bit for bit, because the
// decision paths are defined as "whatever the reference serial path
// computes". inverse conjugates the twiddles (no 1/n scaling), which
// the round-trip tests use as an independent inverse.
func referenceFFT(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	if n == 1 {
		return
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		quarter := half >> 1
		w := make([]complex128, half)
		w[0] = complex(1, 0)
		for k := 1; k < half; k++ {
			switch {
			case k == quarter:
				w[k] = complex(0, -1)
			case k < quarter:
				theta := 2 * math.Pi * float64(k) / float64(size)
				w[k] = complex(math.Cos(theta), -math.Sin(theta))
			default:
				m := w[half-k]
				w[k] = complex(-real(m), imag(m))
			}
		}
		if inverse {
			for k := range w {
				w[k] = complex(real(w[k]), -imag(w[k]))
			}
		}
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// legacyFFT is a frozen copy of the original pre-plan implementation,
// which generated each stage's twiddles by the iterative recurrence
// w *= exp(±2πi/size). The production tables replaced that recurrence
// with the symmetric per-entry construction above (the recurrence's
// rounding error grows along the table and breaks the w[half-k] =
// -conj(w[k]) identity the tables now enforce), so the legacy output is
// no longer bit-identical — TestPlanFFTNearLegacy pins the redefinition
// to rounding-level distance instead.
func legacyFFT(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		return
	}
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= step
			}
		}
	}
}

// applyOracle is the plan-based serial transform the fused kernels
// replaced, kept as their oracle and as the path=reference side of the
// kernel benchmarks: the plan's bit-reversal swaps, then one radix-2
// pass per stage over the plan's twiddle tables.
func applyOracle(p *FFTPlan, x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: FFTPlan size %d applied to length %d", p.n, len(x)))
	}
	for _, pr := range p.pairs {
		x[pr[0]], x[pr[1]] = x[pr[1]], x[pr[0]]
	}
	for s, stage := range p.fwd {
		size := 2 << uint(s)
		half := size >> 1
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * stage[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// inverseOracle inverts an unnormalized forward spectrum in place
// through referenceFFT's conjugated tables and the 1/n scaling.
func inverseOracle(x []complex128) {
	referenceFFT(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func randComplex(n int, seed int64) []complex128 {
	rng := xrand.New(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	return x
}

func complexBitEqual(t *testing.T, label string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: sample %d differs: %v != %v", label, i, got[i], want[i])
		}
	}
}

func floatBitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d differs: %v != %v (delta %g)",
				label, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestPlanFFTBitIdenticalToReference checks the production transform
// against the frozen reference and against the plan's own serial
// one-stage-per-pass loop: the fused (paired-stage) kernels do the same
// arithmetic per element, so they are held to bitwise equality, not a
// tolerance.
func TestPlanFFTBitIdenticalToReference(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		x := randComplex(n, int64(n))
		want := append([]complex128(nil), x...)
		referenceFFT(want, false)
		got := append([]complex128(nil), x...)
		FFT(got)
		complexBitEqual(t, fmt.Sprintf("FFT n=%d", n), got, want)

		serial := append([]complex128(nil), x...)
		applyOracle(PlanFFT(n), serial)
		complexBitEqual(t, fmt.Sprintf("apply loop n=%d", n), serial, want)
	}
}

// TestPlanFFTNearLegacy documents the one deliberate numeric
// redefinition of this codebase's history: replacing the recurrence
// twiddles with the symmetric tables moved individual bins by at most a
// few ULPs. The distance to the legacy output is pinned at rounding
// level so an accidental algorithmic change (wrong stage, wrong sign)
// cannot hide behind "the tables changed". The empirical companion is
// the paperbench golden suite, whose stdout was verified byte-identical
// across the switch.
func TestPlanFFTNearLegacy(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		x := randComplex(n, int64(n))
		want := append([]complex128(nil), x...)
		legacyFFT(want, false)
		got := append([]complex128(nil), x...)
		FFT(got)
		var scale float64
		for _, v := range want {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-13 * scale * float64(bits.Len(uint(n)))
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > tol {
				t.Fatalf("n=%d bin %d: %g from legacy (tol %g)", n, i, d, tol)
			}
		}
	}
}

func TestPlanFFTRoundTrip(t *testing.T) {
	x := randComplex(1024, 9)
	y := append([]complex128(nil), x...)
	FFT(y)
	inverseOracle(y)
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-10 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestPlanFFTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-4, 0, 3, 12, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PlanFFT(%d) did not panic", n)
				}
			}()
			PlanFFT(n)
		}()
	}
	// Applying a plan to the wrong length must panic too.
	defer func() {
		if recover() == nil {
			t.Error("Transform on wrong length did not panic")
		}
	}()
	PlanFFT(8).Transform(make([]complex128, 4))
}

// TestPlanCacheConcurrent hammers the plan cache from 16 goroutines
// across a spread of sizes while transforming, and checks every result
// against the serial reference. Run under -race this covers the
// lock-free read path and the LoadOrStore insertion race.
func TestPlanCacheConcurrent(t *testing.T) {
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	want := make(map[int][]complex128)
	for _, n := range sizes {
		x := randComplex(n, int64(100+n))
		referenceFFT(x, false)
		want[n] = x
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				for _, n := range sizes {
					x := randComplex(n, int64(100+n))
					PlanFFT(n).Transform(x)
					for i := range x {
						if x[i] != want[n][i] {
							errs <- fmt.Errorf("goroutine %d: n=%d sample %d: %v != %v",
								g, n, i, x[i], want[n][i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNextPowerOfTwoContract(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, out := range cases {
		if got := NextPowerOfTwo(in); got != out {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, out)
		}
	}
	for _, bad := range []int{0, -1, -1024} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextPowerOfTwo(%d) did not panic", bad)
				}
			}()
			NextPowerOfTwo(bad)
		}()
	}
}
