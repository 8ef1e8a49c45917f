package dsp

import (
	"fmt"
	"math/cmplx"
	"testing"
)

// This file is the engine-level half of the kernel equivalence suite:
// every consumer-visible transform output — spectrogram rows and Welch
// PSDs — is compared between the production kernels and serial oracles
// that window a copy of each frame with ApplyWindow and transform it
// with referenceFFT, across sizes, hops, input shapes (complex and
// real-in-complex) and parallelism levels, under Float64bits identity.

// stftOracle is the serial STFT the fused kernels replaced: per frame,
// copy, ApplyWindow, transform with fft, then one freshly allocated row
// of magnitudes.
func stftOracle(x []complex128, fftSize, hop int, window []float64, fft func([]complex128)) [][]float64 {
	var rows [][]float64
	buf := make([]complex128, fftSize)
	for start := 0; start+fftSize <= len(x); start += hop {
		copy(buf, x[start:start+fftSize])
		ApplyWindow(buf, window)
		fft(buf)
		row := make([]float64, fftSize)
		for i, v := range buf {
			row[i] = cmplx.Abs(v)
		}
		rows = append(rows, row)
	}
	return rows
}

// welchOracle is the serial Welch PSD the fused kernels replaced: per
// half-overlapped Hann segment, copy, ApplyWindow, referenceFFT, and add
// the power spectrum in segment order; then divide by the segment
// count.
func welchOracle(x []complex128, fftSize int) []float64 {
	window := Hann(fftSize)
	hop := fftSize / 2
	psd := make([]float64, fftSize)
	buf := make([]complex128, fftSize)
	segments := 0
	for start := 0; start+fftSize <= len(x); start += hop {
		copy(buf, x[start:start+fftSize])
		ApplyWindow(buf, window)
		referenceFFT(buf, false)
		for i, v := range buf {
			re, im := real(v), imag(v)
			psd[i] += re*re + im*im
		}
		segments++
	}
	if segments > 0 {
		for i := range psd {
			psd[i] /= float64(segments)
		}
	}
	return psd
}

// forwardReference is referenceFFT's forward direction in the shape
// stftOracle takes.
func forwardReference(x []complex128) { referenceFFT(x, false) }

// realInComplex packs a real signal into a complex buffer, the shape a
// real capture takes inside the IQ pipeline.
func realInComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

func equivParallelisms() []int { return []int{1, 2, 4, 8} }

// TestWindowedTransformMatchesOracle holds the one windowed kernel to
// the serial computation it fuses: copy, ApplyWindow, referenceFFT.
// Every power of two from 1 to 4096, complex and real-in-complex
// frames, with and without a window, under Float64bits identity; the
// source frame must come back untouched.
func TestWindowedTransformMatchesOracle(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		plan := PlanFFT(n)
		for _, in := range []struct {
			shape string
			x     []complex128
		}{
			{"complex", randComplex(n, int64(n)+71)},
			{"real-in-complex", realInComplex(realSignal(n, int64(n)+72))},
		} {
			for _, window := range [][]float64{Hann(n), Blackman(n), nil} {
				want := append([]complex128(nil), in.x...)
				if window != nil {
					ApplyWindow(want, window)
				}
				referenceFFT(want, false)
				src := append([]complex128(nil), in.x...)
				got := make([]complex128, n)
				plan.WindowedTransform(got, src, window)
				label := fmt.Sprintf("n=%d %s window=%v", n, in.shape, window != nil)
				complexBitEqual(t, label, got, want)
				complexBitEqual(t, label+" source", src, in.x)
			}
		}
	}
}

// TestFusedSTFTEquivalence sweeps the STFT surface: for every size/hop
// geometry and input shape, the production STFT at every parallelism
// produces rows bit-identical to the serial oracle.
func TestFusedSTFTEquivalence(t *testing.T) {
	geoms := []struct{ fftSize, hop, length int }{
		{2, 2, 64},
		{8, 8, 300},
		{8, 3, 300},
		{64, 16, 2048},
		{256, 64, 4096},
		{1024, 256, 8192},
		{1024, 1024, 1024}, // exactly one frame
		{1024, 256, 1000},  // shorter than one frame: zero frames
	}
	for _, g := range geoms {
		window := Hann(g.fftSize)
		for _, in := range []struct {
			shape string
			x     []complex128
		}{
			{"complex", randComplex(g.length, int64(g.length)+1)},
			{"real-in-complex", realInComplex(realSignal(g.length, int64(g.length)+2))},
		} {
			want := stftOracle(in.x, g.fftSize, g.hop, window, forwardReference)
			for _, par := range equivParallelisms() {
				got := Engine{Parallelism: par}.STFT(in.x, g.fftSize, g.hop, window, 2.4e6)
				label := fmt.Sprintf("STFT(%s) fft=%d hop=%d len=%d par=%d",
					in.shape, g.fftSize, g.hop, g.length, par)
				if got.Frames() != len(want) {
					t.Fatalf("%s: %d frames, want %d", label, got.Frames(), len(want))
				}
				for f := range want {
					floatBitEqual(t, fmt.Sprintf("%s frame %d", label, f), got.Mag[f], want[f])
				}
			}
		}
	}
}

// TestFusedWelchEquivalence does the same sweep for Welch PSDs.
func TestFusedWelchEquivalence(t *testing.T) {
	geoms := []struct{ fftSize, length int }{
		{2, 64},
		{8, 300},
		{64, 2048},
		{1024, 1 << 14},
		{1024, 1024},     // exactly one segment
		{1024, 1000},     // shorter than one segment: all zeros
		{256, 256 + 128}, // exactly two 50%-overlapped segments
	}
	for _, g := range geoms {
		for _, in := range []struct {
			shape string
			x     []complex128
		}{
			{"complex", randComplex(g.length, int64(g.length)+3)},
			{"real-in-complex", realInComplex(realSignal(g.length, int64(g.length)+4))},
		} {
			want := welchOracle(in.x, g.fftSize)
			for _, par := range equivParallelisms() {
				label := fmt.Sprintf("WelchPSD(%s) fft=%d len=%d par=%d", in.shape, g.fftSize, g.length, par)
				floatBitEqual(t, label, Engine{Parallelism: par}.WelchPSD(in.x, g.fftSize), want)
			}
		}
	}
}

// --- Welch short-capture and minimum-size boundaries -----------------
// Satellite regression tests for the NextPowerOfTwo/Welch sizing
// boundaries: captures shorter than one segment, and the smallest legal
// fftSize.

// TestWelchPSDShorterThanSegment: a capture shorter than fftSize has
// zero segments and must yield an all-zero PSD of full length — not a
// panic, not a truncated slice.
func TestWelchPSDShorterThanSegment(t *testing.T) {
	for _, length := range []int{0, 1, 511, 1023} {
		for _, par := range []int{1, 4} {
			psd := Engine{Parallelism: par}.WelchPSD(randComplex(length, 9), 1024)
			if len(psd) != 1024 {
				t.Fatalf("len=%d par=%d: PSD has %d bins, want 1024", length, par, len(psd))
			}
			for i, v := range psd {
				if v != 0 {
					t.Fatalf("len=%d par=%d: bin %d = %v, want 0", length, par, i, v)
				}
			}
		}
	}
}

// TestWelchPSDFFTSizeTwo pins the smallest accepted transform size.
// fftSize 2 is degenerate by arithmetic, not by accident: the
// symmetric Hann window of length 2 is identically zero (see
// TestHannSizeTwoIsZero), so every windowed segment — and therefore
// the PSD — is exactly zero regardless of the signal. The case still
// must not panic or hang (the historical fftSize-1 infinite loop).
func TestWelchPSDFFTSizeTwo(t *testing.T) {
	x := randComplex(64, 17)
	r := realInComplex(realSignal(64, 18))
	for _, par := range []int{1, 4} {
		e := Engine{Parallelism: par}
		for _, psd := range [][]float64{e.WelchPSD(x, 2), e.WelchPSD(r, 2)} {
			if len(psd) != 2 || psd[0] != 0 || psd[1] != 0 {
				t.Fatalf("par=%d: WelchPSD fftSize 2 = %v, want [0 0]", par, psd)
			}
		}
	}
}

// TestWelchPSDRejectsDegenerateSizes: fftSize 1 (the historical
// infinite loop) and non-powers of two panic.
func TestWelchPSDRejectsDegenerateSizes(t *testing.T) {
	for _, fftSize := range []int{0, 1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WelchPSD fftSize %d did not panic", fftSize)
				}
			}()
			Engine{Parallelism: 1}.WelchPSD(make([]complex128, 256), fftSize)
		}()
	}
}

// TestWelchPSDOneSegmentExact: with exactly fftSize samples there is
// one segment, so the PSD is that segment's windowed periodogram —
// checked against a from-scratch computation.
func TestWelchPSDOneSegmentExact(t *testing.T) {
	const n = 256
	x := randComplex(n, 23)
	seg := append([]complex128(nil), x...)
	ApplyWindow(seg, Hann(n))
	referenceFFT(seg, false)
	want := make([]float64, n)
	for i, v := range seg {
		want[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	got := Engine{Parallelism: 1}.WelchPSD(x, n)
	floatBitEqual(t, "one-segment Welch", got, want)
}
