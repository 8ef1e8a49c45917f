package covert

import (
	"reflect"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/xrand"
)

// detectEdgesPerPeak is detectEdges recomputing the batch maximum for
// every peak, the oracle for the once-per-batch maximum.
func detectEdgesPerPeak(conv []float64, minDist int) []int {
	peaks := dsp.FindPeaks(conv, minDist, 0)
	if len(peaks) == 0 {
		return nil
	}
	gate := 0.2 * dsp.Quantile(conv, 0.99)
	batch := batchBits * minDist
	var out []int
	for _, p := range peaks {
		batchStart := (p / batch) * batch
		localMax, _ := dsp.Max(conv[batchStart:min(batchStart+batch, len(conv))])
		if conv[p] >= max(0.25*localMax, gate) {
			out = append(out, p)
		}
	}
	return out
}

// TestDetectEdgesMatchesPerPeakMax feeds detectEdges on-off keyed
// traces whose level changes every few hundred samples, so neighbouring
// batches have different maxima and a stale or misplaced batch maximum
// moves the per-batch threshold.
func TestDetectEdgesMatchesPerPeakMax(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 20; trial++ {
		y := make([]float64, 5000+rng.Intn(20000))
		level := 1.0
		for i := range y {
			if i%(300+rng.Intn(3)) == 0 {
				level = rng.Uniform(0.1, 5)
			}
			if rng.Intn(2) == 0 && (i/40)%2 == 0 {
				y[i] = level
			}
			y[i] += rng.Normal(0, 0.05)
		}
		conv := dsp.Convolve(y, dsp.EdgeKernel(20))
		for _, minDist := range []int{5, 20, 60} {
			got := detectEdges(conv, minDist)
			want := detectEdgesPerPeak(conv, minDist)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d minDist %d: %d edges, want %d", trial, minDist, len(got), len(want))
			}
		}
	}
}
