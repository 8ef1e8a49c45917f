package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must rank above the reported tail
// percentile, so the tail is never a single outlier.
const tailBeyond = 10

// sample is a set of latencies in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy.
func (s sample) sorted() []float64 {
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return xs
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for an empty sample.
func (s sample) median() float64 {
	xs := s.sorted()
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// tail returns the highest-ranked value with at least beyond samples
// ranked above it, and that value's percentile rank (the share of the
// sample at or below it, in percent). ok is false when the sample has
// no more than beyond values.
func (s sample) tail(beyond int) (value, pct float64, ok bool) {
	xs := s.sorted()
	i := len(xs) - 1 - beyond
	if i < 0 {
		return 0, 0, false
	}
	return xs[i], 100 * float64(i+1) / float64(len(xs)), true
}
