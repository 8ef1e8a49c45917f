package dsp

import (
	"fmt"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"

	"pmuleak/internal/telemetry"
)

// Worker-pool telemetry (the dsp.engine.* series): one histogram
// observation per transform call (never per frame — a frame is
// microseconds, a time.Now pair is not free at that granularity) plus
// counters for the work fanned out. Frame and segment totals are
// derived from the input geometry, so they are deterministic for a
// fixed workload at every worker count.
var (
	engSTFTDur    = telemetry.NewHistogram("dsp.engine.stft")
	engWelchDur   = telemetry.NewHistogram("dsp.engine.welch")
	engSTFTFrames = telemetry.NewCounter("dsp.engine.stft.frames")
	engWelchSegs  = telemetry.NewCounter("dsp.engine.welch.segments")
	engConvolves  = telemetry.NewCounter("dsp.engine.convolve.calls")
)

// defaultParallelism is the process-wide worker count of every
// transform in this package. Zero means runtime.NumCPU(). Stored
// atomically so tools can set it while pipelines run on other
// goroutines.
var defaultParallelism atomic.Int32

// SetDefaultParallelism sets the worker count every transform in this
// package fans out over: p == 0 restores the default (all CPUs), p == 1
// runs each transform serially on the calling goroutine, and p > 1 pins
// a specific worker count. Negative values are treated as 0. Results
// never depend on it (see the package doc).
func SetDefaultParallelism(p int) {
	if p < 0 {
		p = 0
	}
	defaultParallelism.Store(int32(p))
}

// DefaultParallelism reports the current process-wide setting (0 =
// runtime.NumCPU()).
func DefaultParallelism() int { return int(defaultParallelism.Load()) }

// workers resolves the process setting to a concrete worker count.
func workers() int {
	if p := DefaultParallelism(); p > 0 {
		return p
	}
	return runtime.NumCPU()
}

// Chunks partitions [0, n) into at most workers() contiguous ranges and
// runs fn on each, concurrently when there is more than one worker. fn
// must not touch indices outside its range; under that contract the
// result is identical to a single fn(0, n) call. It is the building
// block consumers (e.g. the SDR front end) use for element-wise stages.
func Chunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// STFT computes a magnitude spectrogram of the complex signal x with the
// given FFT size, hop, and window (len(window) must equal fftSize).
// Frames that would run past the end of x are dropped; a signal shorter
// than fftSize (including an empty one) yields a spectrogram with zero
// frames. It allocates one backing array for every frame's row and
// fills it through STFTInto.
func STFT(x []complex128, fftSize, hop int, window []float64, sampleRate float64) *Spectrogram {
	stftValidate(fftSize, hop, window)
	s := &Spectrogram{FFTSize: fftSize, Hop: hop, SampleRate: sampleRate}
	frames := 0
	if len(x) >= fftSize {
		frames = (len(x)-fftSize)/hop + 1
	}
	if frames == 0 {
		return s
	}
	flat := make([]float64, frames*fftSize)
	s.Mag = make([][]float64, frames)
	for f := range s.Mag {
		s.Mag[f] = flat[f*fftSize : (f+1)*fftSize : (f+1)*fftSize]
	}
	STFTInto(s.Mag, x, hop, window)
	return s
}

// STFTInto writes the magnitude spectra of len(rows) frames of x into
// the caller's rows: frame f is x[f*hop : f*hop+len(window)], and each
// row must hold len(window) values. Frames fan out across the worker
// pool; each one is one FFTPlan.WindowedTransform (window multiply and
// bit-reversal permutation in one gather, then the paired butterfly
// stages), and each worker reuses one scratch buffer for all of its
// frames, so the steady state allocates nothing per frame. A frame's
// row is the same arithmetic whichever worker computes it, so the rows
// never depend on the worker count.
func STFTInto(rows [][]float64, x []complex128, hop int, window []float64) {
	fftSize, frames := len(window), len(rows)
	stftValidate(fftSize, hop, window)
	if frames == 0 {
		return
	}
	if need := (frames-1)*hop + fftSize; len(x) < need {
		panic(fmt.Sprintf("dsp: STFTInto needs %d samples for %d frames, got %d", need, frames, len(x)))
	}
	defer engSTFTDur.Start().End()
	engSTFTFrames.Add(uint64(frames))
	plan := PlanFFT(fftSize)
	w := workers()
	if w > frames {
		w = frames
	}
	worker := func(wk int) {
		buf := make([]complex128, fftSize)
		for f := wk; f < frames; f += w {
			plan.WindowedTransform(buf, x[f*hop:f*hop+fftSize], window)
			row := rows[f][:fftSize]
			for i, v := range buf {
				row[i] = cmplx.Abs(v)
			}
		}
	}
	if w == 1 {
		worker(0)
		return
	}
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			worker(wk)
		}(wk)
	}
	wg.Wait()
}

// stftValidate checks the shared STFT argument contract.
func stftValidate(fftSize, hop int, window []float64) {
	if !IsPowerOfTwo(fftSize) {
		panic(fmt.Sprintf("dsp: STFT fftSize %d not a power of two", fftSize))
	}
	if hop <= 0 {
		panic("dsp: STFT hop must be positive")
	}
	if len(window) != fftSize {
		panic("dsp: STFT window length must equal fftSize")
	}
}

// welchBatchFactor bounds the scratch memory of the parallel Welch
// path: per round, workers transform at most workers*welchBatchFactor
// segments before the ordered accumulation drains them.
const welchBatchFactor = 16

// AccumulatePSD adds the power spectrum of every complete segment of x
// to sum and returns the segment count: segment k is x[k*hop :
// k*hop+len(window)], windowed and transformed by one
// FFTPlan.WindowedTransform. The transforms run on the worker pool and
// the spectra are added in segment order, so sum is bit-identical at
// every worker count — and a capture fed in pieces, each piece starting
// where the next segment does, accumulates the same sum as the whole
// capture at once. len(sum) must equal len(window).
func AccumulatePSD(sum []float64, x []complex128, hop int, window []float64) int {
	fftSize := len(window)
	if !IsPowerOfTwo(fftSize) {
		panic(fmt.Sprintf("dsp: AccumulatePSD window length %d not a power of two", fftSize))
	}
	if hop <= 0 {
		panic("dsp: AccumulatePSD hop must be positive")
	}
	if len(sum) != fftSize {
		panic("dsp: AccumulatePSD sum length must equal the window length")
	}
	segments := 0
	if len(x) >= fftSize {
		segments = (len(x)-fftSize)/hop + 1
	}
	if segments == 0 {
		return 0
	}
	defer engWelchDur.Start().End()
	engWelchSegs.Add(uint64(segments))
	plan := PlanFFT(fftSize)
	w := workers()
	if w > segments {
		w = segments
	}
	if w == 1 {
		buf := make([]complex128, fftSize)
		for seg := 0; seg < segments; seg++ {
			plan.WindowedTransform(buf, x[seg*hop:seg*hop+fftSize], window)
			for i, v := range buf {
				re, im := real(v), imag(v)
				sum[i] += re*re + im*im
			}
		}
		return segments
	}
	batch := w * welchBatchFactor
	if batch > segments {
		batch = segments
	}
	flat := make([]float64, batch*fftSize)
	for base := 0; base < segments; base += batch {
		nb := batch
		if base+nb > segments {
			nb = segments - base
		}
		var wg sync.WaitGroup
		for wk := 0; wk < w; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				buf := make([]complex128, fftSize)
				for k := wk; k < nb; k += w {
					start := (base + k) * hop
					plan.WindowedTransform(buf, x[start:start+fftSize], window)
					row := flat[k*fftSize : (k+1)*fftSize]
					for i, v := range buf {
						re, im := real(v), imag(v)
						row[i] = re*re + im*im
					}
				}
			}(wk)
		}
		wg.Wait()
		// Ordered accumulation: segment k is always added after
		// segment k-1, exactly as the serial loop does, so the
		// floating-point sum is reproduced bit for bit.
		for k := 0; k < nb; k++ {
			row := flat[k*fftSize : (k+1)*fftSize]
			for i := range sum {
				sum[i] += row[i]
			}
		}
	}
	return segments
}

// Convolve computes the "same"-size linear convolution of x with kernel
// k: the output has len(x) entries and output[i] is the kernel centered
// at x[i]. Samples beyond the signal edges are treated as zero; an
// empty kernel or signal yields all zeros. The output range is
// partitioned across the worker pool; each output sample is an
// independent dot product, so the result is bit-identical at every
// worker count.
func Convolve(x, k []float64) []float64 {
	out := make([]float64, len(x))
	if len(k) == 0 || len(x) == 0 {
		return out
	}
	engConvolves.Inc()
	Chunks(len(x), func(lo, hi int) { convolveRange(out, x, k, lo, hi) })
	return out
}
