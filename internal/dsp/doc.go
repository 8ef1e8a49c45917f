// Package dsp implements the signal-processing primitives the attack
// pipeline needs: FFT and short-time Fourier transforms, window
// functions, convolution, resonators for the Eq. (1) acquisition,
// peak detection, histograms, robust statistics, and Rayleigh fitting.
//
// Everything is implemented from scratch on the standard library; the
// receiver in the paper was MATLAB, and this package is its Go
// equivalent. Functions operate on plain slices and never retain their
// arguments, so callers are free to reuse buffers.
//
// # The worker pool
//
// Each transform has one form, a package function. The frame-oriented
// ones (Chunks, STFT, STFTInto, AccumulatePSD, WelchPSD, Convolve) fan
// out over a pool of goroutines sized by the one process-wide setting,
// SetDefaultParallelism (0 = all CPUs, 1 = serial, n = n workers); no
// caller passes a worker count. PlanFFT caches one plan per transform
// size, with its twiddle factors and bit-reversal table. The frame
// fan-out (STFTInto) writes magnitude rows into caller-owned rows and
// the segment fan-out (AccumulatePSD) adds power spectra into a
// caller-owned sum, so the receivers can transform each chunk's frames
// or segments in parallel as the chunk arrives. Every windowed frame —
// an STFT frame or a Welch segment — goes through one kernel,
// FFTPlan.WindowedTransform. The pool reports under the dsp.engine.*
// telemetry series.
//
// The pool's defining property is that the worker count never changes
// results: frames, Welch segments, and convolution outputs are
// independent units of identical arithmetic, and the one
// order-sensitive reduction (the Welch segment average) is accumulated
// in segment order after the parallel transforms finish. The
// differential harness in engine_test.go pins this down — every
// parallel output is required to be bit-identical to the serial one —
// and equiv_test.go holds the transforms to serial oracles kept in the
// test files.
package dsp
