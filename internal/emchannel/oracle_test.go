package emchannel

import (
	"fmt"
	"math"
	"testing"

	"pmuleak/internal/xrand"
)

// applyOracle is the whole-capture channel that Path replaced, kept
// verbatim as its oracle: the gain over every sample, then each
// interferer over every sample in list order (addInterferer), then the
// noise.
func applyOracle(iq []complex128, sampleRate float64, cfg Config, rng *xrand.Source) ([]complex128, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("emchannel: sampleRate must be positive")
	}
	for i, in := range cfg.Interferers {
		if in.Kind != CW && in.PeriodS*sampleRate < 1 {
			return nil, fmt.Errorf("emchannel: interferer %d gate period %vs is under one sample at %v S/s",
				i, in.PeriodS, sampleRate)
		}
	}
	gain := cfg.PathGain()
	out := make([]complex128, len(iq))
	for i, v := range iq {
		out[i] = v * complex(gain, 0)
	}
	for _, in := range cfg.Interferers {
		addInterferer(out, sampleRate, in, rng)
	}
	if cfg.NoiseSigma > 0 {
		for i := range out {
			out[i] += complex(rng.Normal(0, cfg.NoiseSigma), rng.Normal(0, cfg.NoiseSigma))
		}
	}
	return out, nil
}

func addInterferer(iq []complex128, sampleRate float64, in Interferer, rng *xrand.Source) {
	if in.Amplitude == 0 {
		return
	}
	phase := rng.Uniform(0, 2*math.Pi)
	step := 2 * math.Pi * in.OffsetHz / sampleRate
	gateSamples := int(math.Round(in.PeriodS * sampleRate))
	onSamples := int(in.Duty * float64(gateSamples))
	for i := range iq {
		on := true
		if in.Kind != CW && gateSamples > 0 {
			on = i%gateSamples < onSamples
		}
		if !on {
			continue
		}
		switch in.Kind {
		case Broadband:
			iq[i] += complex(rng.Normal(0, in.Amplitude), rng.Normal(0, in.Amplitude))
		default:
			phase += step
			if phase > math.Pi {
				phase -= 2 * math.Pi
			} else if phase < -math.Pi {
				phase += 2 * math.Pi
			}
			s, c := math.Sincos(phase)
			iq[i] += complex(in.Amplitude*c, in.Amplitude*s)
		}
	}
}

// cuts returns the piece lengths of the splits the differential tests
// run: fixed sizes, the whole stream, and random uneven cuts.
func cuts(n int, seed int64) map[string][]int {
	fixed := func(size int) []int {
		var out []int
		for left := n; left > 0; left -= size {
			out = append(out, min(size, left))
		}
		return out
	}
	out := map[string][]int{"whole": {n}}
	for _, size := range []int{1, 7, 4096, 16384} {
		out[fmt.Sprint(size)] = fixed(size)
	}
	rng := xrand.New(seed)
	var uneven []int
	for left := n; left > 0; {
		size := min(left, 1+rng.Intn(3000))
		if rng.Bool(0.1) {
			size = 0 // empty pieces are legal
		}
		uneven = append(uneven, size)
		left -= size
	}
	out["uneven"] = uneven
	return out
}

// testField is a deterministic nonzero input.
func testField(n int) []complex128 {
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(math.Cos(0.01*float64(i)), 0.5*math.Sin(0.013*float64(i)))
	}
	return iq
}

// permutations returns every order of ins.
func permutations(ins []Interferer) [][]Interferer {
	if len(ins) <= 1 {
		return [][]Interferer{append([]Interferer(nil), ins...)}
	}
	var out [][]Interferer
	for i := range ins {
		rest := append(append([]Interferer(nil), ins[:i]...), ins[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]Interferer{ins[i]}, p...))
		}
	}
	return out
}

// TestPathMatchesOracle: a Path fed any split of the stream, in place
// or into a separate buffer, gives the oracle's bits.
func TestPathMatchesOracle(t *testing.T) {
	const rate = 240e3
	cw := Interferer{Kind: CW, OffsetHz: 31e3, Amplitude: 0.3}
	pulsed := Interferer{Kind: Pulsed, OffsetHz: -47e3, Amplitude: 0.2, PeriodS: 0.0013, Duty: 0.37}
	bb := Interferer{Kind: Broadband, Amplitude: 0.1, PeriodS: 0.0007, Duty: 0.6}
	type tc struct {
		name string
		cfg  Config
	}
	var cases []tc
	for _, order := range permutations([]Interferer{cw, pulsed, bb}) {
		cfg := DefaultConfig()
		cfg.DistanceM = 0.37
		cfg.Interferers = order
		name := ""
		for _, in := range order {
			name += []string{"cw", "pulsed", "bb"}[in.Kind] + "+"
		}
		cases = append(cases, tc{name + "noise", cfg})
	}
	edge := func(name string, mutate func(*Config)) {
		cfg := DefaultConfig()
		cfg.WallLossDB = 7
		mutate(&cfg)
		cases = append(cases, tc{name, cfg})
	}
	edge("none", func(c *Config) {})
	edge("noise=0", func(c *Config) { c.NoiseSigma = 0; c.Interferers = []Interferer{cw, bb} })
	edge("zero-amplitude", func(c *Config) {
		z := bb
		z.Amplitude = 0
		zc := cw
		zc.Amplitude = 0
		c.Interferers = []Interferer{z, pulsed, zc, bb}
	})
	edge("duty=0", func(c *Config) {
		p, b := pulsed, bb
		p.Duty, b.Duty = 0, 0
		c.Interferers = []Interferer{b, p, cw}
	})
	edge("duty=1", func(c *Config) {
		p, b := pulsed, bb
		p.Duty, b.Duty = 1, 1
		c.Interferers = []Interferer{cw, b, p}
	})
	edge("two-broadband", func(c *Config) {
		b2 := bb
		b2.PeriodS, b2.Duty = 0.0002, 0.25
		c.Interferers = []Interferer{bb, cw, b2}
	})

	for _, n := range []int{0, 5, 40000} {
		iq := testField(n)
		for ci, c := range cases {
			want, err := applyOracle(iq, rate, c.cfg, xrand.New(int64(ci)))
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			for split, sizes := range cuts(n, int64(ci)) {
				for _, inPlace := range []bool{false, true} {
					p, err := NewPath(c.cfg, rate, n, xrand.New(int64(ci)))
					if err != nil {
						t.Fatalf("%s: NewPath: %v", c.name, err)
					}
					got := make([]complex128, n)
					src := iq
					if inPlace {
						copy(got, iq)
						src = got
					}
					lo := 0
					for _, size := range sizes {
						p.Process(got[lo:lo+size], src[lo:lo+size])
						lo += size
					}
					for i := range want {
						if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
							t.Fatalf("%s n=%d split=%s inPlace=%v: sample %d = %v, want %v",
								c.name, n, split, inPlace, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestApplyMatchesOracle: Apply is NewPath plus one Process, and leaves
// its input alone.
func TestApplyMatchesOracle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interferers = []Interferer{OfficeBroadband(0.01), OfficePrinter(0.02), Refrigerator(0.03)}
	iq := testField(30000)
	keep := append([]complex128(nil), iq...)
	want, err := applyOracle(iq, 2.4e6, cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got := Apply(iq, 2.4e6, cfg, xrand.New(5))
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
		if iq[i] != keep[i] {
			t.Fatalf("Apply modified input sample %d", i)
		}
	}
}

func TestPathProcessPastEndPanics(t *testing.T) {
	p, err := NewPath(DefaultConfig(), 2.4e6, 10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p.Process(make([]complex128, 6), make([]complex128, 6))
	defer func() {
		if recover() == nil {
			t.Fatal("Process past the stream's end did not panic")
		}
	}()
	p.Process(make([]complex128, 5), make([]complex128, 5))
}
