package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("sources with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	// A fork's stream must not change if the parent is used afterwards.
	p1 := New(7)
	c1 := p1.Fork()
	firstDraws := make([]float64, 10)
	for i := range firstDraws {
		firstDraws[i] = c1.Float64()
	}

	p2 := New(7)
	c2 := p2.Fork()
	for i := 0; i < 50; i++ {
		p2.Float64() // extra parent draws after the fork
	}
	for i := range firstDraws {
		if got := c2.Float64(); got != firstDraws[i] {
			t.Fatalf("fork stream perturbed by parent usage at draw %d", i)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) = %v out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Normal mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(7)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-7) > 0.1 {
		t.Errorf("Exp mean = %v, want ~7", mean)
	}
}

func TestRayleighMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	const sigma = 2.5
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Rayleigh(sigma)
		if v < 0 {
			t.Fatalf("Rayleigh returned negative %v", v)
		}
		sum += v
	}
	wantMean := sigma * math.Sqrt(math.Pi/2)
	if mean := sum / n; math.Abs(mean-wantMean) > 0.02*wantMean {
		t.Errorf("Rayleigh mean = %v, want ~%v", mean, wantMean)
	}
}

func TestRayleighIsSkewed(t *testing.T) {
	// Skewness of the Rayleigh distribution is positive (~0.63); verify
	// the sample skewness is clearly positive.
	s := New(9)
	const n = 100000
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = s.Rayleigh(1)
		sum += vals[i]
	}
	mean := sum / n
	var m2, m3 float64
	for _, v := range vals {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	skew := m3 / math.Pow(m2, 1.5)
	if skew < 0.4 {
		t.Errorf("sample skewness = %v, want clearly positive (~0.63)", skew)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(10)
	const n = 100000
	trues := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			trues++
		}
	}
	p := float64(trues) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
	if s.Bool(0) {
		// Bool(0) should essentially never be true; a single draw check
		// is probabilistic but with p=0 exact.
		t.Error("Bool(0) returned true")
	}
}

func TestBits(t *testing.T) {
	s := New(11)
	bits := s.Bits(10000)
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("Bits produced non-bit value %d", b)
		}
		ones += int(b)
	}
	if ones < 4700 || ones > 5300 {
		t.Errorf("ones = %d / 10000, want near balanced", ones)
	}
}

func TestJitterBounds(t *testing.T) {
	s := New(12)
	for i := 0; i < 10000; i++ {
		v := s.Jitter(100, 0.05)
		if v < 95 || v > 105 {
			t.Fatalf("Jitter(100, 0.05) = %v out of bounds", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBytesFills(t *testing.T) {
	s := New(14)
	p := make([]byte, 64)
	s.Bytes(p)
	allZero := true
	for _, b := range p {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Error("Bytes left buffer all zero")
	}
}
