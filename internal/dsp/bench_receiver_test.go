package dsp

import "testing"

// Receiver kernel benchmarks, paired like the fused-kernel ones: each
// runs the §IV-B back half's kernel on a 500 k-sample trace (about a
// 1.7 s covert capture after decimation) on the oracle it replaced and
// on the production path. cmd/emreport gates the ratios against
// testdata/receiver_bench_baseline.json.

const receiverBenchLen = 500_000

// edgeTrace is an acquisition-like trace: noise convolved with a
// rising-edge kernel, the input detectEdges hands to FindPeaks and
// Quantile.
func edgeTrace() []float64 {
	return Convolve(realSignal(receiverBenchLen, 8), EdgeKernel(20))
}

func BenchmarkQuantile(b *testing.B) {
	x := edgeTrace()
	for _, path := range []struct {
		name     string
		quantile func([]float64, float64) float64
	}{{"path=sort", quantileSort}, {"path=select", Quantile}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				path.quantile(x, 0.99)
			}
		})
	}
}

func BenchmarkFindPeaks(b *testing.B) {
	x := edgeTrace()
	for _, path := range []struct {
		name      string
		findPeaks func([]float64, int, float64) []int
	}{{"path=reference", findPeaksReference}, {"path=neighbours", FindPeaks}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				path.findPeaks(x, 40, 0)
			}
		})
	}
}

func BenchmarkConvolve(b *testing.B) {
	// One worker: the pair times the blocked kernel against its oracle,
	// not the worker pool Convolve fans out over.
	setParallelism(b, 1)
	x := realSignal(receiverBenchLen, 9)
	k := EdgeKernel(300)
	for _, path := range []struct {
		name     string
		convolve func(x, k []float64) []float64
	}{{"path=reference", convolveReference}, {"path=blocked", Convolve}} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				path.convolve(x, k)
			}
		})
	}
}
