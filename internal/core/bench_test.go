package core

import (
	"testing"

	"pmuleak/internal/emchannel"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// synthSink keeps BenchmarkSynthesis' captures live.
var synthSink *sdr.Capture

// BenchmarkSynthesis times the synthesis of one keystroke capture, on
// BenchmarkLayer/keylog's input (one 15-word session on the Dell
// Precision 7290, 240 kS/s), along two paths:
//   - path=sequential: Emanations, then emchannel.Apply, then
//     sdr.Acquire, each over the whole capture into a buffer of its own;
//   - path=staged: the production path, the channel and the radio as
//     stages of the render, in the one buffer that becomes the capture.
//
// The session is simulated once; each iteration renders it again from
// fresh random streams. No buffer goes back to the pool, so B/op counts
// every full-capture buffer. cmd/emreport gates the ratio against
// testdata/bench_baseline.json.
func BenchmarkSynthesis(b *testing.B) {
	prof, _ := laptop.ByModel("Dell Precision 7290")
	tb := NewTestbed(WithLaptop(prof), WithSeed(13))
	text := keylog.RandomWords(15, xrand.New(tb.Seed+13))
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()
	rng := xrand.New(tb.Seed + 500)
	events := keylog.Type(text, 200*sim.Millisecond, keylog.DefaultTypistConfig(), rng)
	horizon := keylog.SessionHorizon(events)
	keylog.Inject(sys.Kernel(), events, horizon, keylog.DefaultHandlingConfig(), rng.Fork())
	sys.Run(horizon)

	plan := tb.keylogPlan()
	radio := tb.Radio
	radio.SampleRate = plan.SampleRate
	samples := float64(plan.SampleCount(horizon))
	for _, path := range []struct {
		name string
		run  func(rng *xrand.Source) *sdr.Capture
	}{
		{"path=sequential", func(rng *xrand.Source) *sdr.Capture {
			raw := sys.Emanations(horizon, plan)
			field := emchannel.Apply(raw, plan.SampleRate, tb.Channel, rng.Fork())
			return sdr.Acquire(field, plan.CenterFreqHz, radio, rng.Fork())
		}},
		{"path=staged", func(rng *xrand.Source) *sdr.Capture {
			cap, _ := tb.synthesize(emission{plan: plan, sys: sys, horizon: horizon}, rng, true)
			return cap
		}},
	} {
		b.Run(path.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				synthSink = path.run(xrand.New(int64(i)))
			}
			b.ReportMetric(samples*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
		})
	}
}
