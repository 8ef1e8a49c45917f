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

// WelchPSD estimates the power spectral density of x by averaging the
// power spectra of Hann-windowed segments with 50% overlap. It returns
// one value per FFT bin; a signal shorter than fftSize yields all
// zeros. It is one AccumulatePSD over the whole of x, the segment
// fan-out the covert receiver's carrier search runs chunk by chunk.
func WelchPSD(x []complex128, fftSize int) []float64 {
	if !IsPowerOfTwo(fftSize) {
		panic(fmt.Sprintf("dsp: WelchPSD fftSize %d not a power of two", fftSize))
	}
	if fftSize < 2 {
		// fftSize 1 would make the 50%-overlap hop zero; the historical
		// implementation looped forever on it.
		panic("dsp: WelchPSD fftSize must be >= 2")
	}
	psd := make([]float64, fftSize)
	if segments := AccumulatePSD(psd, x, fftSize/2, Hann(fftSize)); segments > 0 {
		for i := range psd {
			psd[i] /= float64(segments)
		}
	}
	return psd
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
