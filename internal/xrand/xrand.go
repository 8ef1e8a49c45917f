// Package xrand provides the deterministic random sources used throughout
// the simulation. Every stochastic model effect — sleep-timer overshoot,
// interrupt arrival, VRM clock jitter, receiver noise — draws from a
// Source seeded by the experiment, so a run is reproducible bit for bit.
//
// The distributions here are the ones the paper's phenomena call for:
// Gaussian receiver noise, exponential interrupt inter-arrival times, and
// the positively skewed (Rayleigh-tailed) sleep overshoot that produces
// the pulse-width distribution of Fig. 6.
package xrand

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source. It is not safe for concurrent
// use; the simulation is single-threaded by construction.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child source. Models use Fork so that
// adding draws to one subsystem does not perturb the streams of others.
func (s *Source) Fork() *Source {
	return New(s.rng.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// Normal returns a Gaussian value with the given mean and standard
// deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// Exp returns an exponentially distributed value with the given mean.
// The exponential is the natural model for interrupt inter-arrival times.
func (s *Source) Exp(mean float64) float64 {
	return mean * s.rng.ExpFloat64()
}

// Rayleigh returns a Rayleigh-distributed value with scale sigma.
// Mean = sigma*sqrt(pi/2); mode = sigma.
func (s *Source) Rayleigh(sigma float64) float64 {
	// Inverse-CDF sampling: X = sigma * sqrt(-2 ln U).
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Bytes fills p with random bytes.
func (s *Source) Bytes(p []byte) {
	// rand.Rand.Read never returns an error.
	s.rng.Read(p)
}

// Bits returns n random bits as a byte slice of 0/1 values. It is the
// standard way experiments generate the random payloads the paper uses
// for BER measurement.
func (s *Source) Bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if s.rng.Int63()&1 == 1 {
			out[i] = 1
		}
	}
	return out
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac]. It is
// used for small multiplicative spreads such as VRM switching-period
// tolerance.
func (s *Source) Jitter(v, frac float64) float64 {
	return v * s.Uniform(1-frac, 1+frac)
}
