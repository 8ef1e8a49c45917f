package xrand

import (
	"math"
	"math/bits"
)

// This file is the population-scale side of the package: substream
// derivation and a lightweight generator for campaigns that create one
// stream per simulated cell. A campaign over a million cells cannot
// afford math/rand's ~5 KB, 607-word lagged-Fibonacci state per cell —
// seeding alone would dominate the run — so cells use Lite, an 8-byte
// SplitMix64 stream whose construction is four integer operations.
//
// The derivation contract: Sub(seed, key) depends only on (seed, key),
// never on how many other substreams exist or in which order they are
// created. That is what makes a campaign's report independent of the
// block and worker that ran each cell — cell i's stream is a pure
// function of the campaign seed and i's stable identity.

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014;
// the same mixer java.util.SplittableRandom and xoshiro seeding use).
// It is a bijection on uint64 with full avalanche: flipping any input
// bit flips each output bit with probability ~1/2, which is why
// adjacent keys yield statistically unrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Lite is a small deterministic random stream: SplitMix64 over an
// 8-byte counter state. Construction is four integer ops and zero
// allocations, so creating one per campaign cell is essentially free.
// The value is self-contained — copy it to fork the stream position —
// and, like Source, a single Lite is not safe for concurrent use.
//
// Quality: SplitMix64 passes BigCrush as a 64-bit generator; its
// equidistribution is weaker than math/rand's source, which is fine for
// the Monte-Carlo population draws campaigns make (a handful of
// uniforms per cell) and not fine for cryptography, which nothing in
// this repository needs.
type Lite struct {
	state uint64
}

// Sub derives the substream for (seed, key): a Lite positioned at the
// start of a stream that is a pure function of the two inputs. Distinct
// keys give streams whose start states are splitmix64-mixed, so
// key k and key k+1 land at unrelated positions of the underlying
// sequence (the substream independence test quantifies this).
func Sub(seed int64, key uint64) Lite {
	// Two mixing rounds: one to spread the seed, one to fold the key in.
	// A single xor of raw seed and key would make (seed=1,key=2) and
	// (seed=2,key=1) collide; the round between them breaks that.
	return Lite{state: splitmix64(splitmix64(uint64(seed)) ^ key)}
}

// Uint64 returns the next 64 uniform bits.
func (l *Lite) Uint64() uint64 {
	l.state += 0x9e3779b97f4a7c15
	x := l.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (l *Lite) Float64() float64 {
	// 53 high bits scaled by 2^-53, the standard double-precision ladder.
	return float64(l.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform value in [lo, hi).
func (l *Lite) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*l.Float64()
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (l *Lite) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Lite.Intn with non-positive n")
	}
	// The multiply-shift reduction has modulo bias below one part in
	// 2^32 for the n this repo uses (population class counts); campaigns
	// prefer the two fewer ops over a rejection loop.
	hi, _ := bits.Mul64(l.Uint64(), uint64(n))
	return int(hi)
}

// Bool returns true with probability p.
func (l *Lite) Bool(p float64) bool { return l.Float64() < p }

// Normal returns a Gaussian value with the given mean and standard
// deviation, via Box-Muller on two uniforms. No spare is cached — the
// state stays 8 bytes and the draw count per call stays fixed, which
// keeps substream consumption predictable.
func (l *Lite) Normal(mean, stddev float64) float64 {
	u := l.Float64()
	for u == 0 {
		u = l.Float64()
	}
	v := l.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u))*math.Cos(2*math.Pi*v)
}

// Exp returns an exponentially distributed value with the given mean.
func (l *Lite) Exp(mean float64) float64 {
	u := l.Float64()
	for u == 0 {
		u = l.Float64()
	}
	return -mean * math.Log(u)
}

// ---------------------------------------------------------------------
// Zipf.

// Zipf samples a Zipf(s) distribution over ranks 0..n-1:
// P(k) ∝ 1/(k+1)^s. The sampler is a precomputed CDF plus one binary
// search per draw, so a single Zipf value can be shared read-only by
// every worker of a campaign — construction is the only mutation.
type Zipf struct {
	cdf []float64 // cdf[k] = P(rank <= k), cdf[n-1] == 1
}

// NewZipf builds the sampler for n ranks with exponent s. s == 0 is the
// uniform distribution; larger s concentrates mass on low ranks (s in
// [0.8, 1.2] matches the workload/popularity skews measured for real
// fleets). n must be positive.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1 // exact, regardless of rounding in the division
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Pick maps a uniform u in [0, 1) to a rank via inverse CDF. Callers
// pass the uniform explicitly (z.Pick(rng.Float64())) so the sampler
// itself stays stateless and safe for concurrent use.
func (z *Zipf) Pick(u float64) int {
	// Binary search for the first cdf[k] > u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
