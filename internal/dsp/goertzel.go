package dsp

import (
	"math"
	"math/cmplx"
)

// Goertzel computes the magnitude of a single DFT bin k of x (length-n
// DFT over the whole slice) without a full FFT. It is used for spot
// checks of individual spectral spikes.
func Goertzel(x []complex128, k int) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * float64(k) / float64(n)
	coeff := complex(2*math.Cos(w), 0)
	var s0, s1, s2 complex128
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	res := s1*cmplx.Exp(complex(0, w)) - s2
	return cmplx.Abs(res)
}
