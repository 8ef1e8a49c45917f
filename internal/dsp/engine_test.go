package dsp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pmuleak/internal/xrand"
)

// The differential harness: for every worker-pool entry point, the
// output at P in {2, 4, 8} workers must be BIT-IDENTICAL to the serial
// (P=1) output. The pool promises equality, not closeness — the
// receiver's downstream decisions (peak picking, bimodal thresholds)
// can flip on 1-ulp differences, so anything weaker would make decoded
// payloads depend on the worker count.

var diffParallelisms = []int{2, 4, 8}

// setParallelism sets the process worker count for the rest of t and
// restores the default (0, all CPUs) when t ends.
func setParallelism(t testing.TB, p int) {
	t.Helper()
	SetDefaultParallelism(p)
	t.Cleanup(func() { SetDefaultParallelism(0) })
}

func realSignal(n int, seed int64) []float64 {
	rng := xrand.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	return x
}

func TestEngineSTFTDifferential(t *testing.T) {
	cases := []struct {
		sigLen, fftSize, hop int
	}{
		{0, 16, 8},        // empty signal
		{1, 16, 8},        // shorter than one frame
		{15, 16, 8},       // still shorter than one frame
		{16, 16, 16},      // exactly one frame
		{100, 16, 7},      // non-power-of-two signal, awkward hop
		{257, 64, 64},     // non-overlapping frames, trailing remainder
		{1024, 256, 64},   // dense overlap
		{5000, 1, 1},      // degenerate 1-point FFT
		{4096, 1024, 256}, // the Fig. 2 spectrogram shape
	}
	for _, c := range cases {
		x := randComplex(c.sigLen, int64(31+c.sigLen))
		window := Hann(c.fftSize)
		setParallelism(t, 1)
		serial := STFT(x, c.fftSize, c.hop, window, 2.4e6)
		for _, p := range diffParallelisms {
			setParallelism(t, p)
			par := STFT(x, c.fftSize, c.hop, window, 2.4e6)
			if len(par.Mag) != len(serial.Mag) {
				t.Fatalf("case %+v P=%d: %d frames, want %d", c, p, len(par.Mag), len(serial.Mag))
			}
			for f := range serial.Mag {
				floatBitEqual(t, fmt.Sprintf("case %+v P=%d frame %d", c, p, f),
					par.Mag[f], serial.Mag[f])
			}
			if par.FFTSize != serial.FFTSize || par.Hop != serial.Hop || par.SampleRate != serial.SampleRate {
				t.Fatalf("case %+v P=%d: metadata differs", c, p)
			}
		}
	}
}

func TestEngineWelchPSDDifferential(t *testing.T) {
	cases := []struct {
		sigLen, fftSize int
	}{
		{0, 16},    // empty
		{15, 16},   // shorter than one segment
		{16, 16},   // exactly one segment
		{100, 16},  // partial trailing segment dropped
		{1023, 64}, // many segments, non-power-of-two signal
		{4096, 1024},
		{10000, 64}, // enough segments to need several parallel batches
		{5000, 2},   // smallest legal segment size
	}
	for _, c := range cases {
		x := randComplex(c.sigLen, int64(57+c.sigLen))
		setParallelism(t, 1)
		serial := WelchPSD(x, c.fftSize)
		for _, p := range diffParallelisms {
			setParallelism(t, p)
			par := WelchPSD(x, c.fftSize)
			floatBitEqual(t, fmt.Sprintf("case %+v P=%d", c, p), par, serial)
		}
	}
}

func TestEngineConvolveDifferential(t *testing.T) {
	xLens := []int{0, 1, 5, 100, 1000, 4097}
	kLens := []int{0, 1, 2, 7, 64, 129}
	for _, xl := range xLens {
		for _, kl := range kLens {
			x := realSignal(xl, int64(xl+kl))
			k := realSignal(kl, int64(xl-kl+1000))
			setParallelism(t, 1)
			serial := Convolve(x, k)
			for _, p := range diffParallelisms {
				setParallelism(t, p)
				par := Convolve(x, k)
				floatBitEqual(t, fmt.Sprintf("x=%d k=%d P=%d", xl, kl, p), par, serial)
			}
		}
	}
}

// TestEngineAutoMatchesSerial pins the setting's semantics: 0 (auto)
// must also reproduce the serial result bit for bit, whatever worker
// count it resolves to.
func TestEngineAutoMatchesSerial(t *testing.T) {
	x := randComplex(5000, 3)
	window := Hann(128)
	setParallelism(t, 0)
	auto := STFT(x, 128, 32, window, 1e6)
	autoPSD := WelchPSD(x, 256)
	setParallelism(t, 1)
	serial := STFT(x, 128, 32, window, 1e6)
	for f := range serial.Mag {
		floatBitEqual(t, fmt.Sprintf("auto frame %d", f), auto.Mag[f], serial.Mag[f])
	}
	floatBitEqual(t, "auto WelchPSD", autoPSD, WelchPSD(x, 256))
}

func TestSetDefaultParallelism(t *testing.T) {
	setParallelism(t, 3)
	if DefaultParallelism() != 3 {
		t.Fatalf("DefaultParallelism = %d", DefaultParallelism())
	}
	if w := workers(); w != 3 {
		t.Fatalf("setting 3 resolved to %d workers", w)
	}
	SetDefaultParallelism(-5)
	if DefaultParallelism() != 0 {
		t.Fatal("negative setting not clamped to 0")
	}
	if w := workers(); w != runtime.NumCPU() {
		t.Fatalf("auto resolved to %d workers, want %d", w, runtime.NumCPU())
	}
}

// TestEngineConcurrentUse runs mixed transforms from several goroutines
// at once on a 4-worker pool; every result must match the baseline
// computed up front. Run under -race this proves the transforms share
// no mutable state and the per-call worker pools do not interfere.
func TestEngineConcurrentUse(t *testing.T) {
	setParallelism(t, 4)
	x := randComplex(6000, 11)
	window := Hann(256)
	baseSTFT := STFT(x, 256, 64, window, 1e6)
	basePSD := WelchPSD(x, 512)
	kernel := EdgeKernel(32)
	re := realSignal(6000, 12)
	baseConv := Convolve(re, kernel)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				s := STFT(x, 256, 64, window, 1e6)
				for f := range baseSTFT.Mag {
					for i := range baseSTFT.Mag[f] {
						if s.Mag[f][i] != baseSTFT.Mag[f][i] {
							errs <- fmt.Errorf("goroutine %d: STFT frame %d bin %d differs", g, f, i)
							return
						}
					}
				}
				for i, v := range WelchPSD(x, 512) {
					if v != basePSD[i] {
						errs <- fmt.Errorf("goroutine %d: PSD bin %d differs", g, i)
						return
					}
				}
				for i, v := range Convolve(re, kernel) {
					if v != baseConv[i] {
						errs <- fmt.Errorf("goroutine %d: conv sample %d differs", g, i)
						return
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

func TestEngineChunksCoversRangeOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		setParallelism(t, p)
		for _, n := range []int{0, 1, 7, 100} {
			covered := make([]int32, n)
			var mu sync.Mutex
			Chunks(n, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("P=%d n=%d: index %d covered %d times", p, n, i, c)
				}
			}
		}
	}
}

func TestEngineSTFTPanicsMatchLegacy(t *testing.T) {
	setParallelism(t, 4)
	x := randComplex(64, 1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-power-of-two fftSize", func() {
		STFT(x, 12, 4, make([]float64, 12), 1e6)
	})
	mustPanic("non-positive hop", func() {
		STFT(x, 16, 0, Hann(16), 1e6)
	})
	mustPanic("window length mismatch", func() {
		STFT(x, 16, 8, Hann(8), 1e6)
	})
	mustPanic("WelchPSD non-power-of-two", func() {
		WelchPSD(x, 12)
	})
	mustPanic("AccumulatePSD non-power-of-two window", func() {
		AccumulatePSD(make([]float64, 12), x, 6, make([]float64, 12))
	})
	mustPanic("AccumulatePSD non-positive hop", func() {
		AccumulatePSD(make([]float64, 16), x, 0, Hann(16))
	})
	mustPanic("AccumulatePSD sum length mismatch", func() {
		AccumulatePSD(make([]float64, 8), x, 8, Hann(16))
	})
	mustPanic("STFTInto input shorter than its frames", func() {
		rows := [][]float64{make([]float64, 16), make([]float64, 16)}
		STFTInto(rows, x[:20], 8, Hann(16))
	})
	// fftSize 1 used to hang the legacy implementation (hop 0); the
	// contract is now an explicit panic.
	mustPanic("WelchPSD fftSize 1", func() {
		WelchPSD(x, 1)
	})
}
