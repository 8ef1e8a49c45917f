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
// # The parallel engine
//
// The hot transforms are available in two forms. The package-level
// functions (FFT, STFT, WelchPSD, Convolve) are single-threaded.
// Engine wraps the same transforms with a worker pool sized by its
// Parallelism field (0 = the process-wide SetDefaultParallelism, itself
// all CPUs unless set; 1 = serial; n = n goroutines) and a
// per-size FFT plan cache (PlanFFT) that precomputes twiddle factors
// and bit-reversal tables once per transform size. Its frame fan-out
// (Engine.STFTInto) writes magnitude rows into caller-owned rows and its
// segment fan-out (Engine.AccumulatePSD) adds power spectra into a
// caller-owned sum, so the receivers can transform each chunk's frames
// or segments in parallel as the chunk arrives. Every windowed frame —
// an STFT frame or a Welch segment — goes through one kernel,
// FFTPlan.WindowedTransform.
//
// The engine's defining property is that parallelism never changes
// results: frames, Welch segments, and convolution outputs are
// independent units of identical arithmetic, and the one
// order-sensitive reduction (the Welch segment average) is accumulated
// in segment order after the parallel transforms finish. The
// differential harness in engine_test.go pins this down — every
// parallel output is required to be bit-identical to the serial one —
// and equiv_test.go holds the transforms to serial oracles kept in the
// test files.
package dsp
