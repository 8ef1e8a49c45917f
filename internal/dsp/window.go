package dsp

import "math"

// Hann returns an n-point Hann window. It is the default analysis window
// for the spectrogram pipeline.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// Blackman returns an n-point Blackman window, used where stronger
// sidelobe suppression is needed than Hann provides.
func Blackman(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
	}
	return w
}

// ApplyWindow multiplies frame by window element-wise, in place.
// The slices must have equal length.
func ApplyWindow(frame []complex128, window []float64) {
	if len(frame) != len(window) {
		panic("dsp: frame/window length mismatch")
	}
	for i := range frame {
		frame[i] *= complex(window[i], 0)
	}
}
