package dsp

import "math"

// RayleighFit estimates the scale parameter sigma of a Rayleigh
// distribution from samples by maximum likelihood:
//
//	sigma^2 = (1/2N) * sum(x_i^2)
//
// The paper observes (Fig. 6) that the distance between consecutive bit
// start points follows a Rayleigh-like, positively skewed distribution;
// the experiments fit it to characterize the timing spread.
func RayleighFit(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / (2 * float64(len(x))))
}
