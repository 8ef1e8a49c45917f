package covert

import (
	"math"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/xrand"
)

// buildCapture runs the transmit -> emanate -> propagate -> acquire
// half of the pipeline once, so a capture can be demodulated repeatedly
// under different receiver settings.
func buildCapture(payloadBits int, seed int64) (*sdr.Capture, TXConfig, []byte, laptop.Profile) {
	prof := laptop.Reference()
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()

	txCfg := DefaultTXConfig(prof.DefaultSleepPeriod)
	payload := xrand.New(seed + 1000).Bits(payloadBits)
	frame := EncodeFrame(payload, txCfg)
	SpawnTransmitter(sys.Kernel(), frame, txCfg)

	horizon := AirtimeEstimate(frame, txCfg, prof.Kernel)
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	field := sys.Emanations(horizon, plan)

	rng := xrand.New(seed + 2000)
	field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng)
	cap := sdr.Acquire(field, plan.CenterFreqHz, sdr.DefaultConfig(), rng.Fork())
	return cap, txCfg, payload, prof
}

func demodEqual(t *testing.T, label string, a, b *Demod) {
	t.Helper()
	if a.CarrierFound != b.CarrierFound {
		t.Fatalf("%s: CarrierFound %v != %v", label, a.CarrierFound, b.CarrierFound)
	}
	cmpFloats := func(name string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d != %d", label, name, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v != %v", label, name, i, x[i], y[i])
			}
		}
	}
	cmpFloats("Offsets", a.Offsets, b.Offsets)
	cmpFloats("Y", a.Y, b.Y)
	cmpFloats("Conv", a.Conv, b.Conv)
	cmpFloats("Powers", a.Powers, b.Powers)
	if len(a.Starts) != len(b.Starts) {
		t.Fatalf("%s: Starts length %d != %d", label, len(a.Starts), len(b.Starts))
	}
	for i := range a.Starts {
		if a.Starts[i] != b.Starts[i] {
			t.Fatalf("%s: Starts[%d] = %d != %d", label, i, a.Starts[i], b.Starts[i])
		}
	}
	if math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) ||
		math.Float64bits(a.SignalingTime) != math.Float64bits(b.SignalingTime) {
		t.Fatalf("%s: threshold/signaling time differ", label)
	}
	if len(a.Bits) != len(b.Bits) {
		t.Fatalf("%s: Bits length %d != %d", label, len(a.Bits), len(b.Bits))
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			t.Fatalf("%s: Bits[%d] = %d != %d", label, i, a.Bits[i], b.Bits[i])
		}
	}
}

// TestDemodulateParallelismIndependence is the end-to-end arm of the
// differential harness: the full demodulator — Welch carrier search,
// acquisition, both edge-detection passes, power statistics, decoded
// bits — must be identical at every DSP worker count, not just the dsp
// primitives in isolation.
func TestDemodulateParallelismIndependence(t *testing.T) {
	cap, txCfg, payload, prof := buildCapture(96, 41)
	cfg := DefaultRXConfig()
	cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	cfg.MinBitPeriod = txCfg.BitPeriod() / 2

	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	dsp.SetDefaultParallelism(1)
	serial := Demodulate(cap, cfg)
	if !serial.CarrierFound || len(serial.Bits) == 0 {
		t.Fatal("baseline serial demodulation found nothing; test capture is broken")
	}
	serialPayload, _, serialOK := serial.RecoverPayload(txCfg)

	for _, p := range []int{0, 2, 4, 8} {
		dsp.SetDefaultParallelism(p)
		d := Demodulate(cap, cfg)
		demodEqual(t, labelP(p), serial, d)
		gotPayload, _, ok := d.RecoverPayload(txCfg)
		if ok != serialOK || len(gotPayload) != len(serialPayload) {
			t.Fatalf("P=%d: payload recovery diverged", p)
		}
		for i := range gotPayload {
			if gotPayload[i] != serialPayload[i] {
				t.Fatalf("P=%d: payload bit %d differs", p, i)
			}
		}
	}
	// Sanity: the shared capture actually decodes the payload.
	if !serialOK {
		t.Fatal("payload did not synchronize")
	}
	_ = payload
}

func labelP(p int) string {
	return map[int]string{0: "P=auto", 2: "P=2", 4: "P=4", 8: "P=8"}[p]
}

// TestDemodulateConcurrentSharedConfig runs the demodulator from many
// goroutines against one shared capture and one shared config, each
// goroutine itself fanning out internally. Run under -race this covers
// the FFT plan cache and the engine worker pools along the whole
// receiver path.
func TestDemodulateConcurrentSharedConfig(t *testing.T) {
	cap, txCfg, _, prof := buildCapture(48, 43)
	cfg := DefaultRXConfig()
	cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	cfg.MinBitPeriod = txCfg.BitPeriod() / 2
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	dsp.SetDefaultParallelism(2)

	baseline := Demodulate(cap, cfg)
	const goroutines = 8
	results := make([]*Demod, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			results[g] = Demodulate(cap, cfg)
			done <- g
		}(g)
	}
	for range results {
		<-done
	}
	for g, d := range results {
		demodEqual(t, labelP(2)+" concurrent", baseline, d)
		_ = g
	}
}
