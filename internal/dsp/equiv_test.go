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
				setParallelism(t, par)
				got := STFT(in.x, g.fftSize, g.hop, window, 2.4e6)
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
				setParallelism(t, par)
				label := fmt.Sprintf("WelchPSD(%s) fft=%d len=%d par=%d", in.shape, g.fftSize, g.length, par)
				floatBitEqual(t, label, WelchPSD(in.x, g.fftSize), want)
			}
		}
	}
}

// TestSTFTIntoPiecewiseMatchesOracle drives the frame fan-out the way
// the keystroke detector does: frames transformed a few at a time, each
// call starting at the next frame's first sample and writing into the
// next rows of one caller-owned backing array. The rows must equal the
// serial oracle's bit for bit at every parallelism.
func TestSTFTIntoPiecewiseMatchesOracle(t *testing.T) {
	for _, g := range []struct{ fftSize, hop, length, piece int }{
		{8, 8, 300, 1},
		{64, 64, 5000, 7},
		{256, 64, 4096, 5},
		{1024, 1024, 40000, 16},
	} {
		x := randComplex(g.length, int64(g.length)+5)
		window := Hann(g.fftSize)
		want := stftOracle(x, g.fftSize, g.hop, window, forwardReference)
		for _, par := range equivParallelisms() {
			flat := make([]float64, len(want)*g.fftSize)
			rows := make([][]float64, len(want))
			for f := range rows {
				rows[f] = flat[f*g.fftSize : (f+1)*g.fftSize]
			}
			setParallelism(t, par)
			for lo := 0; lo < len(rows); lo += g.piece {
				hi := lo + g.piece
				if hi > len(rows) {
					hi = len(rows)
				}
				STFTInto(rows[lo:hi], x[lo*g.hop:], g.hop, window)
			}
			for f := range want {
				floatBitEqual(t, fmt.Sprintf("fft=%d hop=%d piece=%d par=%d frame %d",
					g.fftSize, g.hop, g.piece, par, f), rows[f], want[f])
			}
		}
	}
}

// TestAccumulatePSDPiecewiseMatchesOracle drives the segment fan-out
// the way the covert receiver does: the capture arrives in pieces of
// awkward lengths, each call starting at the next segment's first
// sample, and one caller-owned sum collects every segment in order. The
// averaged sum must equal the serial Welch oracle bit for bit at every
// parallelism.
func TestAccumulatePSDPiecewiseMatchesOracle(t *testing.T) {
	for _, g := range []struct{ fftSize, length, piece int }{
		{8, 300, 9},
		{64, 5000, 100},
		{1024, 1 << 15, 9973},
	} {
		x := randComplex(g.length, int64(g.length)+6)
		want := welchOracle(x, g.fftSize)
		window, hop := Hann(g.fftSize), g.fftSize/2
		for _, par := range equivParallelisms() {
			setParallelism(t, par)
			sum := make([]float64, g.fftSize)
			start, segments := 0, 0
			for end := g.piece; start < len(x); end += g.piece {
				if end > len(x) {
					end = len(x)
				}
				n := AccumulatePSD(sum, x[start:end], hop, window)
				segments += n
				start += n * hop
				if end == len(x) {
					break
				}
			}
			for i := range sum {
				sum[i] /= float64(segments)
			}
			floatBitEqual(t, fmt.Sprintf("fft=%d piece=%d par=%d", g.fftSize, g.piece, par), sum, want)
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
			setParallelism(t, par)
			psd := WelchPSD(randComplex(length, 9), 1024)
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
		setParallelism(t, par)
		for _, psd := range [][]float64{WelchPSD(x, 2), WelchPSD(r, 2)} {
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
			WelchPSD(make([]complex128, 256), fftSize)
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
	got := WelchPSD(x, n)
	floatBitEqual(t, "one-segment Welch", got, want)
}
