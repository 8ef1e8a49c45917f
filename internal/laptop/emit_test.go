package laptop

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"pmuleak/internal/dsp"
	"pmuleak/internal/em"
	"pmuleak/internal/kernel"
	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// renderMaterialized is em.Render as it was before the pulse train was
// streamed: collect the train, bin it with vrm.EnergyRate, trim or pad
// the envelope to the sample count, smooth it with dsp.MovingAverage,
// then run the oscillators. It is the oracle the streamed renderer must
// match bit for bit, and the reference BenchmarkEmanations measures
// the streamed path against.
func renderMaterialized(pulses []vrm.Pulse, horizon sim.Time, cfg em.Config, rng *xrand.Source) []complex128 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.SampleCount(horizon)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	dt := sim.FromSeconds(1 / cfg.SampleRate)
	if dt < 1 {
		dt = 1
	}
	env := vrm.EnergyRate(pulses, horizon, dt)
	if len(env) > n {
		env = env[:n]
	}
	for len(env) < n {
		env = append(env, 0)
	}
	smoothSamples := int(cfg.EnvelopeSmoothPeriods * cfg.SampleRate / cfg.SwitchingFreqHz)
	if smoothSamples < 4 {
		smoothSamples = 4
	}
	env = dsp.MovingAverage(env, smoothSamples)

	type osc struct {
		phase, step, kfrac, amp float64
	}
	usable := 0.46 * cfg.SampleRate
	var oscs []osc
	for k := 1; k <= cfg.Harmonics; k++ {
		off := float64(k)*cfg.SwitchingFreqHz - cfg.CenterFreqHz
		if math.Abs(off) > usable {
			continue
		}
		oscs = append(oscs, osc{
			phase: rng.Uniform(0, 2*math.Pi),
			step:  2 * math.Pi * off / cfg.SampleRate,
			kfrac: float64(k),
			amp:   1 / float64(k),
		})
	}
	driftPerSample := cfg.CarrierDriftHzPerS / cfg.SampleRate
	var wander, wanderStep float64
	if cfg.FreqDitherHz > 0 {
		rate := cfg.FreqDitherRateHz
		if rate <= 0 {
			rate = 1000
		}
		wanderStep = cfg.FreqDitherHz * math.Sqrt(rate/cfg.SampleRate)
		wander = rng.Uniform(-cfg.FreqDitherHz, cfg.FreqDitherHz)
	}
	for i := 0; i < n; i++ {
		var dn float64
		if cfg.PhaseNoiseSigma > 0 {
			dn = rng.Normal(0, cfg.PhaseNoiseSigma)
		}
		if wanderStep > 0 {
			wander += rng.Normal(0, wanderStep)
			if wander > cfg.FreqDitherHz {
				wander = 2*cfg.FreqDitherHz - wander
			} else if wander < -cfg.FreqDitherHz {
				wander = -2*cfg.FreqDitherHz - wander
			}
			dn += 2 * math.Pi * wander / cfg.SampleRate
		}
		if driftPerSample != 0 {
			dn += 2 * math.Pi * driftPerSample * float64(i) / cfg.SampleRate
		}
		a := cfg.EmitterGain * env[i]
		var acc complex128
		for j := range oscs {
			o := &oscs[j]
			o.phase += o.step + o.kfrac*dn
			if o.phase > math.Pi {
				o.phase -= 2 * math.Pi
			} else if o.phase < -math.Pi {
				o.phase += 2 * math.Pi
			}
			s, c := math.Sincos(o.phase)
			acc += complex(a*o.amp*c, a*o.amp*s)
		}
		out[i] = acc
	}
	return out
}

// emanationsMaterialized is Emanations on the oracle path, with the
// same random-source forks in the same order.
func (s *System) emanationsMaterialized(horizon sim.Time, plan EmanationPlan) []complex128 {
	pulses := s.Pulses(horizon)
	return renderMaterialized(pulses, horizon, s.emConfig(plan), s.rng.Fork())
}

// covertPlan and keylogPlan are the two tunings the experiments use: the
// RTL-SDR default at 2.4 MS/s with two harmonics, and the keystroke
// detector's 240 kS/s capture of the fundamental 60 kHz above center.
func covertPlan(p Profile) EmanationPlan { return (&System{Profile: p}).DefaultPlan() }

func keylogPlan(p Profile) EmanationPlan {
	return EmanationPlan{SampleRate: 240e3, CenterFreqHz: p.VRM.SwitchingFreqHz - 60e3, Harmonics: 1}
}

// bootLoaded runs a system for horizon under an on/off load on every
// core, so its VRM alternates between full conduction and shedding.
func bootLoaded(prof Profile, seed int64, horizon sim.Time) *System {
	sys := NewSystem(prof, seed)
	for c := 0; c < sys.Kernel().Cores(); c++ {
		busy := sim.Time(300+100*c) * sim.Microsecond
		sys.Kernel().SpawnOn(fmt.Sprintf("load%d", c), c, func(p *kernel.Proc) {
			for p.Now() < horizon {
				p.Busy(busy)
				p.Sleep(200 * sim.Microsecond)
			}
		})
	}
	sys.Run(horizon)
	return sys
}

type emitCase struct {
	name    string
	prof    Profile
	plan    EmanationPlan
	horizon sim.Time
}

// emitGrid is the differential grid: every profile under both plans,
// the VRM phase/jitter extremes Validate allows, the DVFS and two-core
// load paths, and horizons whose ⌈horizon/dt⌉ envelope buckets fall
// short of and exceed the sample count, plus a zero horizon. The long
// horizons span several render blocks, so the overlapped walk hands
// buckets over more than once.
func emitGrid() []emitCase {
	long := func(plan EmanationPlan) sim.Time {
		if plan.SampleRate < 1e6 {
			return 150 * sim.Millisecond
		}
		return 20 * sim.Millisecond
	}
	var cases []emitCase
	add := func(name string, prof Profile, horizons ...sim.Time) {
		for _, plan := range []struct {
			name string
			plan EmanationPlan
		}{{"covert", covertPlan(prof)}, {"keylog", keylogPlan(prof)}} {
			hs := horizons
			if hs == nil {
				hs = []sim.Time{long(plan.plan)}
			}
			for _, h := range hs {
				cases = append(cases, emitCase{
					name:    fmt.Sprintf("%s/%s/h=%v", name, plan.name, h),
					prof:    prof,
					plan:    plan.plan,
					horizon: h,
				})
			}
		}
	}
	for _, p := range Profiles() {
		add(p.Model, p)
	}
	for _, phases := range []int{1, 4, 8} {
		for _, jitter := range []float64{0.002, 0.3, 0.5} {
			p := Reference()
			p.VRM.Phases = phases
			p.VRM.PeriodJitterFrac = jitter
			add(fmt.Sprintf("phases=%d,jitter=%v", phases, jitter), p)
		}
	}
	dvfs := Reference()
	dvfs.DVFSWindow = 5 * sim.Millisecond
	add("dvfs", dvfs)
	twoCore := Reference()
	twoCore.Kernel.Cores = 2
	twoCore.VRM.Phases = 4
	add("cores=2", twoCore)
	add("horizons", Reference(), 0, 10*sim.Microsecond, sim.Millisecond)
	return cases
}

// TestEmanationsMatchMaterialized pins the streamed emit path to the
// materialized oracle bit for bit, both with the walk overlapped on its
// own goroutine and walked first on one P, and checks that Render
// leaves no goroutine behind.
func TestEmanationsMatchMaterialized(t *testing.T) {
	var bucketsShort, bucketsOver bool
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range emitGrid() {
				want := bootLoaded(tc.prof, 11, tc.horizon)
				got := bootLoaded(tc.prof, 11, tc.horizon)
				wantIQ := want.emanationsMaterialized(tc.horizon, tc.plan)
				before := runtime.NumGoroutine()
				gotIQ := got.Emanations(tc.horizon, tc.plan)
				waitGoroutines(t, before)
				want.Close()
				got.Close()

				if len(gotIQ) != len(wantIQ) {
					t.Fatalf("%s: %d samples, want %d", tc.name, len(gotIQ), len(wantIQ))
				}
				for i := range wantIQ {
					if math.Float64bits(real(gotIQ[i])) != math.Float64bits(real(wantIQ[i])) ||
						math.Float64bits(imag(gotIQ[i])) != math.Float64bits(imag(wantIQ[i])) {
						t.Fatalf("%s: sample %d = %v, want %v", tc.name, i, gotIQ[i], wantIQ[i])
					}
				}
				if tc.horizon > 0 && em.RMS(wantIQ) == 0 {
					t.Fatalf("%s: oracle rendered silence; the case tests nothing", tc.name)
				}
				dt := sim.FromSeconds(1 / tc.plan.SampleRate)
				buckets := int((tc.horizon + dt - 1) / dt)
				n := len(wantIQ)
				bucketsShort = bucketsShort || (n > 0 && buckets < n)
				bucketsOver = bucketsOver || (n > 0 && buckets > n)
			}
		})
	}
	if !bucketsShort || !bucketsOver {
		t.Fatalf("grid must cover envelopes shorter (%v) and longer (%v) than the sample count",
			bucketsShort, bucketsOver)
	}
}

// waitGoroutines fails unless the goroutine count falls back to want:
// the pulse walk must be gone once Render returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Render, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestEmanationsAllocPerSample bounds the streamed path's allocation per
// output sample, independent of the pulse count: the IQ output (16 B)
// and the envelope (8 B) per sample, plus a constant.
func TestEmanationsAllocPerSample(t *testing.T) {
	const horizon = 100 * sim.Millisecond
	for _, phases := range []int{1, 8} {
		prof := Reference()
		prof.VRM.Phases = phases
		sys := bootLoaded(prof, 3, horizon)
		plan := keylogPlan(prof)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		iq := sys.Emanations(horizon, plan)
		runtime.ReadMemStats(&after)
		sys.Close()
		perSample := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(iq))
		if perSample > 40 {
			t.Errorf("phases=%d: %.1f B allocated per sample, want <= 40", phases, perSample)
		}
	}
}

// emitSink keeps BenchmarkEmanations' renders live.
var emitSink []complex128

// BenchmarkEmanations times one keystroke-capture emission (240 kS/s,
// one harmonic, two seconds of on/off load) on the materialized oracle
// and on the streamed production path. cmd/benchguard gates their
// ratio against testdata/bench_baseline.json.
func BenchmarkEmanations(b *testing.B) {
	const horizon = 2 * sim.Second
	prof := Reference()
	sys := bootLoaded(prof, 5, horizon)
	defer sys.Close()
	plan := keylogPlan(prof)
	samples := float64(em.Config{SampleRate: plan.SampleRate}.SampleCount(horizon))
	for _, path := range []struct {
		name string
		emit func() []complex128
	}{
		{"path=materialized", func() []complex128 { return sys.emanationsMaterialized(horizon, plan) }},
		{"path=streamed", func() []complex128 { return sys.Emanations(horizon, plan) }},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				emitSink = path.emit()
			}
			b.ReportMetric(samples*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
		})
	}
}
