package xrand

import (
	"math"
	"testing"
)

// TestSubDeterministic: a substream is a pure function of (seed, key) —
// the property the campaign determinism contract rests on.
func TestSubDeterministic(t *testing.T) {
	a := Sub(2020, 17)
	b := Sub(2020, 17)
	for i := 0; i < 64; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %x != %x", i, av, bv)
		}
	}
	c := Sub(2020, 18)
	d := Sub(2021, 17)
	e := Sub(2020, 17)
	if c.Uint64() == e.Uint64() {
		t.Fatal("adjacent keys produced identical first draws")
	}
	e = Sub(2020, 17)
	if d.Uint64() == e.Uint64() {
		t.Fatal("adjacent seeds produced identical first draws")
	}
}

// TestSubSeedKeyAsymmetry: (seed=a, key=b) and (seed=b, key=a) must be
// distinct streams — the reason Sub mixes the seed before folding the
// key in.
func TestSubSeedKeyAsymmetry(t *testing.T) {
	a := Sub(1, 2)
	b := Sub(2, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("Sub(1,2) and Sub(2,1) collide")
	}
}

// TestSubKeyCollisions: across 4096 shard keys (4x the satellite's
// >=1k floor) and several campaign seeds, no two substreams share a
// start state, and no two first outputs collide.
func TestSubKeyCollisions(t *testing.T) {
	const keys = 4096
	for _, seed := range []int64{0, 1, 2020, -7, 1 << 40} {
		states := make(map[uint64]uint64, keys)
		firsts := make(map[uint64]uint64, keys)
		for k := uint64(0); k < keys; k++ {
			l := Sub(seed, k)
			if prev, dup := states[l.state]; dup {
				t.Fatalf("seed %d: keys %d and %d share a start state", seed, prev, k)
			}
			states[l.state] = k
			f := l.Uint64()
			if prev, dup := firsts[f]; dup {
				t.Fatalf("seed %d: keys %d and %d share a first draw", seed, prev, k)
			}
			firsts[f] = k
		}
	}
}

// TestSubCrossCorrelation: streams from adjacent shard keys must be
// statistically independent. For 1024 key pairs, the Pearson
// correlation between the two streams' uniforms (256 draws each) must
// stay inside the +-4/sqrt(n) band expected of independent sequences,
// and the worst pair must not be wildly outside it.
func TestSubCrossCorrelation(t *testing.T) {
	const (
		pairs = 1024
		draws = 256
	)
	// 4/sqrt(draws) = 0.25: a generous per-pair bound (~4 sigma), with
	// the mean |r| over all pairs additionally bounded near its
	// independent-sequence expectation E|r| ~ sqrt(2/(pi*draws)) ~ 0.05.
	const perPairBound = 0.25
	var sumAbs float64
	for k := uint64(0); k < pairs; k++ {
		a := Sub(2020, k)
		b := Sub(2020, k+1)
		var sa, sb, saa, sbb, sab float64
		for i := 0; i < draws; i++ {
			x, y := a.Float64(), b.Float64()
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		n := float64(draws)
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		r := cov / math.Sqrt(va*vb)
		if math.Abs(r) > perPairBound {
			t.Fatalf("keys %d/%d: cross-correlation %.3f exceeds %.2f", k, k+1, r, perPairBound)
		}
		sumAbs += math.Abs(r)
	}
	if mean := sumAbs / pairs; mean > 0.08 {
		t.Fatalf("mean |r| over %d adjacent-key pairs = %.3f, want < 0.08 (independent streams ~0.05)", pairs, mean)
	}
}

// TestLiteUniformMoments: the Float64 stream has the right first two
// moments (mean 1/2, variance 1/12) to Monte-Carlo tolerance.
func TestLiteUniformMoments(t *testing.T) {
	l := Sub(7, 0)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := l.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Fatalf("variance = %v, want ~%v", variance, 1.0/12)
	}
}

// TestLiteIntnRange: Intn stays in range and covers every residue for
// small n; non-positive n panics like math/rand.
func TestLiteIntnRange(t *testing.T) {
	l := Sub(3, 9)
	seen := make([]int, 7)
	for i := 0; i < 7000; i++ {
		v := l.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c == 0 {
			t.Fatalf("Intn(7) never produced %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	l.Intn(0)
}

// TestLiteNormal: Box-Muller moments at Monte-Carlo tolerance.
func TestLiteNormal(t *testing.T) {
	l := Sub(11, 4)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := l.Normal(2, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("variance = %v, want ~9", variance)
	}
}

// TestZipf: CDF sanity — skew toward low ranks for s>0, uniformity for
// s==0, exact coverage of [0,1) including the u->1 edge.
func TestZipf(t *testing.T) {
	z := NewZipf(8, 1.1)
	if z.N() != 8 {
		t.Fatalf("N = %d", z.N())
	}
	if z.Pick(0) != 0 {
		t.Fatalf("Pick(0) = %d, want rank 0", z.Pick(0))
	}
	if got := z.Pick(math.Nextafter(1, 0)); got != 7 {
		t.Fatalf("Pick(1-eps) = %d, want last rank", got)
	}
	// Empirical skew: rank 0 must dominate rank 7 by roughly 8^1.1.
	l := Sub(13, 0)
	counts := make([]int, 8)
	for i := 0; i < 100000; i++ {
		counts[z.Pick(l.Float64())]++
	}
	if counts[0] < 5*counts[7] {
		t.Fatalf("insufficient skew: counts %v", counts)
	}
	// s == 0 is uniform: every rank within 20%% of the mean.
	u := NewZipf(4, 0)
	counts = make([]int, 4)
	for i := 0; i < 100000; i++ {
		counts[u.Pick(l.Float64())]++
	}
	for r, c := range counts {
		if c < 20000 || c > 30000 {
			t.Fatalf("s=0 rank %d count %d, want ~25000", r, c)
		}
	}
}

func BenchmarkSubPerCell(b *testing.B) {
	// The campaign inner loop: derive a cell substream and make a
	// handful of draws. Compare with BenchmarkSourcePerCell.
	var sink float64
	for i := 0; i < b.N; i++ {
		l := Sub(2020, uint64(i))
		sink += l.Float64() + l.Float64() + l.Float64() + l.Float64()
	}
	_ = sink
}

func BenchmarkSourcePerCell(b *testing.B) {
	// What the same loop costs with a full math/rand source per cell:
	// the ~5 KB lagged-Fibonacci seeding campaigns cannot afford.
	var sink float64
	for i := 0; i < b.N; i++ {
		s := New(2020 + int64(i))
		sink += s.Float64() + s.Float64() + s.Float64() + s.Float64()
	}
	_ = sink
}
