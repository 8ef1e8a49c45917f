package keylog

import (
	"reflect"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// Regression tests for the detector's NextPowerOfTwo sizing boundaries:
// the detector rounds its window up to a power of two and bails out
// when the capture cannot hold even one segment. The cutoffs below are
// pinned exactly, so a future refactor of the sizing arithmetic cannot
// move them silently.

// shortCapture builds a capture of n deterministic noise samples at
// 240 kHz, where the default 2.5 ms window rounds to 600 samples and
// an fftSize of 1024.
func shortCapture(n int) *sdr.Capture {
	rng := xrand.New(int64(n) + 1000)
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(rng.Normal(0, 0.1), rng.Normal(0, 0.1))
	}
	return &sdr.Capture{IQ: iq, SampleRate: 240e3}
}

// noiseConfig is the default detector hinted at a 60 kHz spike: the
// noise captures here have none, but the detector needs a hint to start
// its band from.
func noiseConfig() DetectorConfig {
	cfg := DefaultDetectorConfig()
	cfg.ExpectedF0 = 60e3
	return cfg
}

// TestDetectCaptureShorterThanSegment pins the one-segment cutoff: at
// fftSize-1 samples the detection is empty (no Band, no FrameDT), and
// one sample later the STFT runs and produces exactly one frame.
func TestDetectCaptureShorterThanSegment(t *testing.T) {
	for _, n := range []int{0, 1, 600, 1023} {
		det := Detect(shortCapture(n), noiseConfig())
		if len(det.Keystrokes) != 0 || len(det.Band) != 0 || det.FrameDT != 0 {
			t.Fatalf("%d-sample capture (< fftSize 1024) produced %+v", n, det)
		}
	}
	det := Detect(shortCapture(1024), noiseConfig())
	if len(det.Band) != 1 {
		t.Fatalf("1024-sample capture: %d band frames, want 1", len(det.Band))
	}
	if len(det.Keystrokes) != 0 {
		t.Fatal("noise-only capture detected keystrokes")
	}
}

// TestDetectFFTSizeTwo drives the detector at the smallest transform
// the DSP layer accepts: a window short enough to round to two samples.
// Hann(2) is identically zero, so every frame's band energy is zero and
// nothing can be detected — but the case must not panic or hang.
// (fftSize 1 is unreachable: the windowSamples < 1 guard returns first,
// covered by TestDetectZeroSampleWindow.)
func TestDetectFFTSizeTwo(t *testing.T) {
	cfg := noiseConfig()
	cfg.Window = sim.Microsecond // 2 samples at 2 MHz
	cap := shortCapture(4096)
	cap.SampleRate = 2e6
	det := Detect(cap, cfg)
	if len(det.Band) == 0 {
		t.Fatal("fftSize-2 detection ran no STFT frames")
	}
	if len(det.Keystrokes) != 0 {
		t.Fatalf("zero-window STFT produced keystrokes: %+v", det.Keystrokes)
	}
}

// TestDetectFusedEquivalence is the consumer-level differential for the
// detector's fused STFT kernel: the full Detection — keystrokes, band
// trace, threshold — must be identical serial and parallel. The
// detector consumes only STFT magnitudes, which the kernel equivalence
// suite proves bit-identical to a serial oracle, so DeepEqual is the
// honest bar here, not a tolerance.
func TestDetectFusedEquivalence(t *testing.T) {
	cap := shortCapture(1 << 15)
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	var want *Detection
	for _, par := range []int{1, 4} {
		dsp.SetDefaultParallelism(par)
		det := Detect(cap, noiseConfig())
		if want == nil {
			want = det
			continue
		}
		if !reflect.DeepEqual(det, want) {
			t.Fatalf("par=%d: detection differs from serial", par)
		}
	}
}
