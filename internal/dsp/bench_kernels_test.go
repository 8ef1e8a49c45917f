package dsp

import "testing"

// Kernel benchmarks, paired so the fused-kernel speedup is measured
// inside one process on one machine: for each workload, path=reference
// is the pre-fusion serial algorithm (copy, ApplyWindow, the plan's
// one-stage-per-pass loop in applyOracle) and path=fused is the
// production path. cmd/emreport gates the fused/reference ratio
// from this output — ratios survive machine-speed differences, absolute
// nanoseconds do not.

const (
	benchTraceLen = 1 << 17
	benchFFTSize  = 1024
	benchHop      = 256
)

// BenchmarkSTFTComplex measures the fused win on the pipeline's
// workload shape — complex IQ through the windowed gather and the
// paired butterfly stages.
func BenchmarkSTFTComplex(b *testing.B) {
	x := randComplex(benchTraceLen, 3)
	window := Hann(benchFFTSize)
	plan := PlanFFT(benchFFTSize)
	b.Run("path=reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stftOracle(x, benchFFTSize, benchHop, window, func(buf []complex128) { applyOracle(plan, buf) })
		}
	})
	setParallelism(b, 1) // one worker, as the reference side runs
	b.Run("path=fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			STFT(x, benchFFTSize, benchHop, window, 2.4e6)
		}
	})
}

func BenchmarkFFT(b *testing.B) {
	// One op is a batch of transforms: a single 4096-point FFT is tens
	// of microseconds, far too short for the -benchtime 2x CI runs to
	// measure a stable fused/reference ratio.
	const n = 4096
	const batch = 64
	src := randComplex(n, 4)
	buf := make([]complex128, n)
	b.Run("path=reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				copy(buf, src)
				applyOracle(PlanFFT(n), buf)
			}
		}
	})
	b.Run("path=fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				copy(buf, src)
				FFT(buf)
			}
		}
	})
}
