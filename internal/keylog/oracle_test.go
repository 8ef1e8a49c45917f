package keylog

import (
	"reflect"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/faults"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/xrand"
)

// detectOracle is the batch detector the Detector replaced, kept as its
// oracle: the spectrogram of the whole capture, the band tracker run
// block by block over its rows, then the shared global tail.
func detectOracle(cap *sdr.Capture, cfg DetectorConfig) *Detection {
	g, ok := planGeometry(cfg, cap.SampleRate)
	if !ok || g.fftSize > len(cap.IQ) {
		return &Detection{}
	}
	s := dsp.STFT(cap.IQ, g.fftSize, g.fftSize, dsp.Hann(g.fftSize), cap.SampleRate)
	center := s.Bin(cfg.ExpectedF0 - cap.CenterFreqHz)
	band := make([]float64, s.Frames())
	for lo := 0; lo < s.Frames(); lo += g.blockFrames {
		hi := lo + g.blockFrames
		if hi > s.Frames() {
			hi = s.Frames()
		}
		center = scanBlock(s.Mag[lo:hi], band[lo:hi], center, g.fftSize, g.searchBins, cfg.BandBins)
	}
	return finishDetection(band, g.frameDT, g.blockFrames, cfg)
}

// detectChunked pushes the capture into a fresh detector in size-sample
// chunks (the last one shorter) and finalizes it.
func detectChunked(t *testing.T, cap *sdr.Capture, cfg DetectorConfig, size int) *Detection {
	t.Helper()
	d, err := NewDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	for lo := 0; lo < len(cap.IQ); lo += size {
		hi := lo + size
		if hi > len(cap.IQ) {
			hi = len(cap.IQ)
		}
		d.Push(cap.IQ[lo:hi])
	}
	return d.Finalize()
}

// TestDetectorChunkingInvariance holds the one detector to the batch
// oracle: on every laptop, faults off and on (with GapAware's per-block
// normalization on the faulted capture), at 1 and 4 DSP workers, the
// Detection of the capture pushed in chunks of 1, 7, 9973 and 65536
// samples, as one chunk, and as one chunk larger than the capture is
// reflect.DeepEqual to the oracle's. A one-second TrackBlock puts
// several block boundaries inside each session. (Chunks shorter than a
// frame run at 1 worker only; see the loop.)
func TestDetectorChunkingInvariance(t *testing.T) {
	faulty := faults.Config{DropRatePerS: 2, GainStepRatePerS: 0.5, GainStepMaxDB: 6}
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	for pi, prof := range laptop.Profiles() {
		clean := profileKeylogCapture(prof, RandomWords(3, xrand.New(600+int64(pi))), 610+int64(pi))
		base := DefaultDetectorConfig()
		base.ExpectedF0 = prof.VRM.SwitchingFreqHz
		base.TrackBlock /= 2
		for _, withFaults := range []bool{false, true} {
			cap, cfg := clean, base
			if withFaults {
				cap = &sdr.Capture{IQ: append([]complex128(nil), clean.IQ...),
					SampleRate: clean.SampleRate, CenterFreqHz: clean.CenterFreqHz}
				faults.MustNew(faulty, 620+int64(pi)).Apply(cap)
				cfg.GapAware = true
			}
			want := detectOracle(cap, cfg)
			if len(want.Keystrokes) == 0 {
				t.Fatalf("%s faults=%v: oracle detected no keystrokes; the comparison would be vacuous", prof.Model, withFaults)
			}
			for _, par := range []int{1, 4} {
				dsp.SetDefaultParallelism(par)
				for _, size := range []int{1, 7, 9973, 65536, len(cap.IQ), len(cap.IQ) + 1} {
					if g, _ := planGeometry(cfg, cap.SampleRate); par > 1 && size < g.fftSize {
						// A chunk shorter than a frame never completes
						// two frames in one push, so every transform
						// runs serially whatever the worker count: par
						// 1 covered it.
						continue
					}
					if got := detectChunked(t, cap, cfg, size); !reflect.DeepEqual(got, want) {
						t.Errorf("%s faults=%v par=%d chunk=%d: detector differs from the batch oracle (%d vs %d keystrokes, threshold %v vs %v)",
							prof.Model, withFaults, par, size, len(got.Keystrokes), len(want.Keystrokes), got.Threshold, want.Threshold)
					}
				}
			}
		}
	}
}

// TestDetectorRestoreChecksState: a state that does not follow from its
// sample count, or comes from another geometry, is refused and leaves
// the detector untouched; a consistent one resumes to the oracle's
// Detection.
func TestDetectorRestoreChecksState(t *testing.T) {
	cap, prof := buildKeylogCapture(t, "restore me", 77)
	cfg := DefaultDetectorConfig()
	cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	cfg.TrackBlock /= 4
	src, err := NewDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(cap.IQ)/2 + 123
	src.Push(cap.IQ[:cut])
	good := src.State()
	if len(good.Rows) == 0 || len(good.Band) == 0 || len(good.Frame) == 0 {
		t.Fatalf("cut %d leaves rows %d, band %d, frame %d: pick a cut inside a block and a frame",
			cut, len(good.Rows), len(good.Band), len(good.Frame))
	}
	for name, mutate := range map[string]func(*DetectorState){
		"samples": func(s *DetectorState) { s.Samples++ },
		"frame":   func(s *DetectorState) { s.Frame = s.Frame[1:] },
		"rows":    func(s *DetectorState) { s.Rows = s.Rows[1:] },
		"band":    func(s *DetectorState) { s.Band = s.Band[1:] },
		"row":     func(s *DetectorState) { s.Rows[0] = s.Rows[0][1:] },
		"center":  func(s *DetectorState) { s.Center = -1 },
	} {
		bad := good
		bad.Rows = append([][]float64(nil), good.Rows...)
		mutate(&bad)
		d, _ := NewDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
		if err := d.Restore(bad); err == nil {
			t.Errorf("%s: Restore accepted an inconsistent state", name)
		}
		if d.State().Samples != 0 {
			t.Errorf("%s: a refused Restore changed the detector", name)
		}
	}
	d, _ := NewDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err := d.Restore(good); err != nil {
		t.Fatalf("Restore refused a consistent state: %v", err)
	}
	d.Push(cap.IQ[cut:])
	if got, want := d.Finalize(), detectOracle(cap, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored detector differs from the oracle (%d vs %d keystrokes)", len(got.Keystrokes), len(want.Keystrokes))
	}
}
