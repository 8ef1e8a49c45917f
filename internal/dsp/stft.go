package dsp

import (
	"bufio"
	"fmt"
	"io"
)

// Spectrogram is the magnitude output of a short-time Fourier transform:
// Mag[frame][bin], together with the parameters needed to map indices
// back to time and frequency.
type Spectrogram struct {
	Mag        [][]float64 // |STFT|, one row per frame
	FFTSize    int
	Hop        int     // samples between frame starts
	SampleRate float64 // Hz
}

// Frames reports the number of time frames.
func (s *Spectrogram) Frames() int { return len(s.Mag) }

// FrameTime returns the time (seconds) of the center of frame i.
func (s *Spectrogram) FrameTime(i int) float64 {
	return (float64(i)*float64(s.Hop) + float64(s.FFTSize)/2) / s.SampleRate
}

// BinFreq returns the baseband frequency (Hz) of bin k.
func (s *Spectrogram) BinFreq(k int) float64 {
	return BinFrequency(k, s.FFTSize, s.SampleRate)
}

// Bin returns the bin index closest to frequency f.
func (s *Spectrogram) Bin(f float64) int {
	return FrequencyBin(f, s.FFTSize, s.SampleRate)
}

// Column extracts the time series of a single frequency bin.
func (s *Spectrogram) Column(bin int) []float64 {
	out := make([]float64, len(s.Mag))
	for i, row := range s.Mag {
		out[i] = row[bin]
	}
	return out
}

// BandEnergy sums the magnitudes of the given bins for every frame,
// which is exactly the paper's Eq. (1) acquisition evaluated frame-wise.
func (s *Spectrogram) BandEnergy(bins []int) []float64 {
	out := make([]float64, len(s.Mag))
	for i, row := range s.Mag {
		var sum float64
		for _, b := range bins {
			sum += row[b]
		}
		out[i] = sum
	}
	return out
}

// STFT computes a magnitude spectrogram of the complex signal x with the
// given FFT size, hop, and window (len(window) must equal fftSize).
// Frames that would run past the end of x are dropped; a signal shorter
// than fftSize (including an empty one) yields a spectrogram with zero
// frames. This is the single-threaded path; Engine.STFT computes the
// bit-identical result on a worker pool.
func STFT(x []complex128, fftSize, hop int, window []float64, sampleRate float64) *Spectrogram {
	return Engine{Parallelism: 1}.STFT(x, fftSize, hop, window, sampleRate)
}

// WelchPSD estimates the power spectral density of x by averaging the
// power spectra of Hann-windowed segments with 50% overlap. It returns
// one value per FFT bin; a signal shorter than fftSize yields all
// zeros. The receiver uses it to locate the VRM carrier before
// demodulation. This is the single-threaded path; Engine.WelchPSD
// computes the bit-identical result on a worker pool.
func WelchPSD(x []complex128, fftSize int) []float64 {
	return Engine{Parallelism: 1}.WelchPSD(x, fftSize)
}

// WriteCSV emits the spectrogram as CSV: a header row of bin center
// frequencies (Hz, FFT-shifted so they ascend), then one row per frame
// with the frame time (s) in the first column. Plotting tools consume
// this directly.
func (s *Spectrogram) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, "time_s"); err != nil {
		return err
	}
	n := s.FFTSize
	order := make([]int, n)
	for i := range order {
		order[i] = (i + n/2) % n // negative frequencies first
	}
	for _, bin := range order {
		if _, err := fmt.Fprintf(bw, ",%.0f", s.BinFreq(bin)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	for f := range s.Mag {
		if _, err := fmt.Fprintf(bw, "%.6f", s.FrameTime(f)); err != nil {
			return err
		}
		for _, bin := range order {
			if _, err := fmt.Fprintf(bw, ",%.6g", s.Mag[f][bin]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}
