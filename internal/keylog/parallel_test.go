package keylog

import (
	"fmt"
	"math"
	"testing"

	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// buildKeylogCapture runs the typing -> emanation -> acquisition half
// of the pipeline once on the Dell Precision 7290 so the detector can be
// rerun under different settings on the identical capture.
func buildKeylogCapture(t *testing.T, text string, seed int64) (*sdr.Capture, laptop.Profile) {
	t.Helper()
	prof, _ := laptop.ByModel("Dell Precision 7290")
	return profileKeylogCapture(prof, text, seed), prof
}

// profileKeylogCapture is buildKeylogCapture on any laptop.
func profileKeylogCapture(prof laptop.Profile, text string, seed int64) *sdr.Capture {
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()

	rng := xrand.New(seed + 500)
	events := Type(text, 200*sim.Millisecond, DefaultTypistConfig(), rng)
	horizon := SessionHorizon(events)
	Inject(sys.Kernel(), events, horizon, DefaultHandlingConfig(), rng.Fork())
	sys.Run(horizon)

	plan := keylogPlan(prof)
	field := sys.Emanations(horizon, plan)
	field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng.Fork())

	sdrCfg := sdr.DefaultConfig()
	sdrCfg.SampleRate = plan.SampleRate
	return sdr.Acquire(field, plan.CenterFreqHz, sdrCfg, rng.Fork())
}

func detectionEqual(t *testing.T, label string, a, b *Detection) {
	t.Helper()
	if len(a.Band) != len(b.Band) {
		t.Fatalf("%s: Band length %d != %d", label, len(a.Band), len(b.Band))
	}
	for i := range a.Band {
		if math.Float64bits(a.Band[i]) != math.Float64bits(b.Band[i]) {
			t.Fatalf("%s: Band[%d] = %v != %v", label, i, a.Band[i], b.Band[i])
		}
	}
	if math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
		t.Fatalf("%s: Threshold %v != %v", label, a.Threshold, b.Threshold)
	}
	if math.Float64bits(a.FrameDT) != math.Float64bits(b.FrameDT) {
		t.Fatalf("%s: FrameDT %v != %v", label, a.FrameDT, b.FrameDT)
	}
	if len(a.Keystrokes) != len(b.Keystrokes) {
		t.Fatalf("%s: %d keystrokes != %d", label, len(a.Keystrokes), len(b.Keystrokes))
	}
	for i := range a.Keystrokes {
		if a.Keystrokes[i] != b.Keystrokes[i] {
			t.Fatalf("%s: keystroke %d differs: %+v != %+v",
				label, i, a.Keystrokes[i], b.Keystrokes[i])
		}
	}
}

// TestDetectParallelismIndependence: the keystroke detector's entire
// output — band trace, threshold, detected keystrokes — must be
// bit-identical at every DSP worker count.
func TestDetectParallelismIndependence(t *testing.T) {
	cap, prof := buildKeylogCapture(t, "attack at dawn", 71)
	cfg := DefaultDetectorConfig()
	cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz

	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	dsp.SetDefaultParallelism(1)
	serial := Detect(cap, cfg)
	if len(serial.Keystrokes) == 0 {
		t.Fatal("baseline serial detection found nothing; test capture is broken")
	}
	for _, p := range []int{0, 2, 4, 8} {
		dsp.SetDefaultParallelism(p)
		detectionEqual(t, "P="+string(rune('0'+p)), serial, Detect(cap, cfg))
	}
}

// TestDetectZeroSampleWindow covers the NextPowerOfTwo call-site guard:
// a Window so short it rounds to zero samples at the capture rate must
// yield an empty detection, not a panic.
func TestDetectZeroSampleWindow(t *testing.T) {
	cap := &sdr.Capture{IQ: make([]complex128, 4096), SampleRate: 240e3}
	cfg := noiseConfig()
	cfg.Window = 1 // 1 simulated nanosecond << one sample period
	det := Detect(cap, cfg)
	if len(det.Keystrokes) != 0 || len(det.Band) != 0 {
		t.Fatal("sub-sample window produced detections")
	}
}

// TestDemodulateDetectConcurrentStress runs the covert demodulator and
// the keystroke detector concurrently on shared captures and shared
// configs with parallel engines — the whole-pipeline concurrency test
// the engine must survive under -race: concurrent plan-cache lookups of
// different FFT sizes, overlapping worker pools, and shared read-only
// inputs.
func TestDemodulateDetectConcurrentStress(t *testing.T) {
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	dsp.SetDefaultParallelism(2)
	keyCap, prof := buildKeylogCapture(t, "race free", 73)
	detCfg := DefaultDetectorConfig()
	detCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	detBase := Detect(keyCap, detCfg)

	covCap, txCfg := buildCovertCapture(t, 75)
	rxCfg := covert.DefaultRXConfig()
	rxCfg.ExpectedF0 = laptop.Reference().VRM.SwitchingFreqHz
	rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
	covBase := covert.Demodulate(covCap, rxCfg)
	if len(covBase.Bits) == 0 {
		t.Fatal("baseline demodulation decoded nothing")
	}

	const pairs = 4
	done := make(chan error, 2*pairs)
	for g := 0; g < pairs; g++ {
		go func(g int) {
			d := Detect(keyCap, detCfg)
			if len(d.Keystrokes) != len(detBase.Keystrokes) {
				done <- fmt.Errorf("goroutine %d: keystroke count %d != %d",
					g, len(d.Keystrokes), len(detBase.Keystrokes))
				return
			}
			done <- nil
		}(g)
		go func(g int) {
			d := covert.Demodulate(covCap, rxCfg)
			if len(d.Bits) != len(covBase.Bits) {
				done <- fmt.Errorf("goroutine %d: bit count %d != %d",
					g, len(d.Bits), len(covBase.Bits))
				return
			}
			for i := range d.Bits {
				if d.Bits[i] != covBase.Bits[i] {
					done <- fmt.Errorf("goroutine %d: bit %d differs", g, i)
					return
				}
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 2*pairs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// buildCovertCapture mirrors the covert package's test helper: one
// transmit/acquire cycle whose capture is then demodulated repeatedly.
func buildCovertCapture(t *testing.T, seed int64) (*sdr.Capture, covert.TXConfig) {
	t.Helper()
	prof := laptop.Reference()
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()

	txCfg := covert.DefaultTXConfig(prof.DefaultSleepPeriod)
	payload := xrand.New(seed + 1000).Bits(48)
	frame := covert.EncodeFrame(payload, txCfg)
	covert.SpawnTransmitter(sys.Kernel(), frame, txCfg)
	horizon := covert.AirtimeEstimate(frame, txCfg, prof.Kernel)
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	field := sys.Emanations(horizon, plan)
	rng := xrand.New(seed + 2000)
	field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng)
	return sdr.Acquire(field, plan.CenterFreqHz, sdr.DefaultConfig(), rng.Fork()), txCfg
}
