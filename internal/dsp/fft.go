package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n.
//
// Contract: n must be > 0; n <= 0 panics. Callers that can receive
// degenerate sizes guard before calling: keylog.Detect reports no
// keystrokes when the STFT window rounds to zero samples. (STFT and
// WelchPSD never call it: they require the caller to pass a
// power-of-two size and panic otherwise.)
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo of non-positive n")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// FFT computes the discrete Fourier transform of x in place using an
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of
// two. The transform is unnormalized (no 1/n factor). The twiddle and
// bit-reversal tables come from the per-size plan cache (PlanFFT), so
// repeated transforms of one size pay the table cost once.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	PlanFFT(n).Transform(x)
}

// BinFrequency returns the baseband frequency (Hz) of FFT bin k for an
// n-point transform of complex samples taken at sampleRate. Bins above
// n/2 map to negative frequencies, matching the convention of a complex
// (IQ) capture.
func BinFrequency(k, n int, sampleRate float64) float64 {
	if k >= n/2 {
		k -= n
	}
	return float64(k) * sampleRate / float64(n)
}

// FrequencyBin returns the FFT bin index (0..n-1) closest to frequency f
// (which may be negative for an IQ capture) for an n-point transform at
// sampleRate.
func FrequencyBin(f float64, n int, sampleRate float64) int {
	k := int(math.Round(f * float64(n) / sampleRate))
	k %= n
	if k < 0 {
		k += n
	}
	return k
}
