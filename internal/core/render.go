package core

import (
	"fmt"
	"io"
	"strings"

	"pmuleak/internal/dsp"
)

// RenderSpectrogram writes an ASCII-art spectrogram (time on the x-axis,
// frequency on the y-axis, darkness = magnitude) to w. It is the
// terminal stand-in for the paper's Fig. 2 / Fig. 11 plots.
func RenderSpectrogram(w io.Writer, s *dsp.Spectrogram, rows, cols int) {
	if s.Frames() == 0 || rows < 1 || cols < 1 {
		fmt.Fprintln(w, "(empty spectrogram)")
		return
	}
	shades := []byte(" .:-=+*#%@")

	// Reduce to rows x cols by max-pooling; display positive
	// frequencies on top, negative below, like a centered FFT plot.
	n := s.FFTSize
	grid := make([][]float64, rows)
	for r := range grid {
		grid[r] = make([]float64, cols)
	}
	var peak float64
	for f := 0; f < s.Frames(); f++ {
		c := f * cols / s.Frames()
		for bin := 0; bin < n; bin++ {
			// Shifted bin: map frequency range [-sr/2, sr/2) onto rows
			// with high frequencies at row 0.
			shifted := (bin + n/2) % n
			r := (n - 1 - shifted) * rows / n
			v := s.Mag[f][bin]
			if v > grid[r][c] {
				grid[r][c] = v
			}
			if v > peak {
				peak = v
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	for r := 0; r < rows; r++ {
		var sb strings.Builder
		// Frequency label: center frequency offset of this row's top.
		frac := 0.5 - float64(r)/float64(rows)
		fmt.Fprintf(&sb, "%+8.0fkHz |", frac*s.SampleRate/1e3)
		for c := 0; c < cols; c++ {
			idx := int(float64(len(shades)-1) * grid[r][c] / peak)
			sb.WriteByte(shades[idx])
		}
		sb.WriteByte('|')
		fmt.Fprintln(w, sb.String())
	}
	dur := float64(s.Frames()) * float64(s.Hop) / s.SampleRate
	fmt.Fprintf(w, "%12s 0%s%.3fs\n", "", strings.Repeat(" ", max(0, cols-6)), dur)
}
