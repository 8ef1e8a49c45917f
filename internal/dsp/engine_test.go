package dsp

import (
	"fmt"
	"sync"
	"testing"

	"pmuleak/internal/xrand"
)

// The differential harness: for every engine entry point, the parallel
// output at P in {2, 4, 8} must be BIT-IDENTICAL to the serial (P=1)
// output, which in turn must be bit-identical to the package-level
// legacy function. The engine promises equality, not closeness — the
// receiver's downstream decisions (peak picking, bimodal thresholds)
// can flip on 1-ulp differences, so anything weaker would make decoded
// payloads depend on the worker count.

var diffParallelisms = []int{2, 4, 8}

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
		serial := Engine{Parallelism: 1}.STFT(x, c.fftSize, c.hop, window, 2.4e6)
		legacy := STFT(x, c.fftSize, c.hop, window, 2.4e6)
		if len(serial.Mag) != len(legacy.Mag) {
			t.Fatalf("case %+v: serial engine %d frames, legacy %d", c, len(serial.Mag), len(legacy.Mag))
		}
		for f := range legacy.Mag {
			floatBitEqual(t, fmt.Sprintf("case %+v serial-vs-legacy frame %d", c, f),
				serial.Mag[f], legacy.Mag[f])
		}
		for _, p := range diffParallelisms {
			par := Engine{Parallelism: p}.STFT(x, c.fftSize, c.hop, window, 2.4e6)
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
		serial := Engine{Parallelism: 1}.WelchPSD(x, c.fftSize)
		floatBitEqual(t, fmt.Sprintf("case %+v serial-vs-legacy", c),
			serial, WelchPSD(x, c.fftSize))
		for _, p := range diffParallelisms {
			par := Engine{Parallelism: p}.WelchPSD(x, c.fftSize)
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
			serial := Engine{Parallelism: 1}.Convolve(x, k)
			floatBitEqual(t, fmt.Sprintf("x=%d k=%d serial-vs-legacy", xl, kl),
				serial, Convolve(x, k))
			for _, p := range diffParallelisms {
				par := Engine{Parallelism: p}.Convolve(x, k)
				floatBitEqual(t, fmt.Sprintf("x=%d k=%d P=%d", xl, kl, p), par, serial)
			}
		}
	}
}

// TestEngineAutoMatchesSerial pins the knob semantics: Parallelism 0
// (auto) must also reproduce the serial result bit for bit, whatever
// worker count it resolves to.
func TestEngineAutoMatchesSerial(t *testing.T) {
	x := randComplex(5000, 3)
	window := Hann(128)
	auto := Engine{}.STFT(x, 128, 32, window, 1e6)
	serial := Engine{Parallelism: 1}.STFT(x, 128, 32, window, 1e6)
	for f := range serial.Mag {
		floatBitEqual(t, fmt.Sprintf("auto frame %d", f), auto.Mag[f], serial.Mag[f])
	}
	floatBitEqual(t, "auto WelchPSD", Engine{}.WelchPSD(x, 256), Engine{Parallelism: 1}.WelchPSD(x, 256))
}

func TestSetDefaultParallelism(t *testing.T) {
	defer SetDefaultParallelism(0)
	SetDefaultParallelism(3)
	if DefaultParallelism() != 3 {
		t.Fatalf("DefaultParallelism = %d", DefaultParallelism())
	}
	if w := (Engine{}).workers(); w != 3 {
		t.Fatalf("auto engine resolved to %d workers, want 3", w)
	}
	if w := (Engine{Parallelism: 1}).workers(); w != 1 {
		t.Fatalf("explicit serial engine resolved to %d workers", w)
	}
	SetDefaultParallelism(-5)
	if DefaultParallelism() != 0 {
		t.Fatal("negative default not clamped to 0")
	}
}

// TestEngineConcurrentUse shares one engine between goroutines running
// mixed workloads; every result must match the baseline computed up
// front. Run under -race this proves the engine itself carries no
// mutable state and the per-call worker pools do not interfere.
func TestEngineConcurrentUse(t *testing.T) {
	eng := Engine{Parallelism: 4}
	x := randComplex(6000, 11)
	window := Hann(256)
	baseSTFT := eng.STFT(x, 256, 64, window, 1e6)
	basePSD := eng.WelchPSD(x, 512)
	kernel := EdgeKernel(32)
	re := realSignal(6000, 12)
	baseConv := eng.Convolve(re, kernel)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				s := eng.STFT(x, 256, 64, window, 1e6)
				for f := range baseSTFT.Mag {
					for i := range baseSTFT.Mag[f] {
						if s.Mag[f][i] != baseSTFT.Mag[f][i] {
							errs <- fmt.Errorf("goroutine %d: STFT frame %d bin %d differs", g, f, i)
							return
						}
					}
				}
				for i, v := range eng.WelchPSD(x, 512) {
					if v != basePSD[i] {
						errs <- fmt.Errorf("goroutine %d: PSD bin %d differs", g, i)
						return
					}
				}
				for i, v := range eng.Convolve(re, kernel) {
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
		for _, n := range []int{0, 1, 7, 100} {
			covered := make([]int32, n)
			var mu sync.Mutex
			Engine{Parallelism: p}.Chunks(n, func(lo, hi int) {
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
		Engine{Parallelism: 4}.STFT(x, 12, 4, make([]float64, 12), 1e6)
	})
	mustPanic("non-positive hop", func() {
		Engine{Parallelism: 4}.STFT(x, 16, 0, Hann(16), 1e6)
	})
	mustPanic("window length mismatch", func() {
		Engine{Parallelism: 4}.STFT(x, 16, 8, Hann(8), 1e6)
	})
	mustPanic("WelchPSD non-power-of-two", func() {
		Engine{Parallelism: 4}.WelchPSD(x, 12)
	})
	// fftSize 1 used to hang the legacy implementation (hop 0); the
	// contract is now an explicit panic.
	mustPanic("WelchPSD fftSize 1", func() {
		Engine{Parallelism: 1}.WelchPSD(x, 1)
	})
}
