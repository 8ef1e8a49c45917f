package stream_test

import (
	"reflect"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/sdr"
	"pmuleak/internal/stream"
)

// chunkSweep returns the chunk sizes the equivalence tests exercise for
// a capture of n samples: size 1 (every sample its own chunk, so every
// splice seam left by a fault-injected block drop coincides with a
// chunk boundary), sizes not divisible by the STFT hop, a size leaving
// a final partial chunk smaller than one STFT frame, the exact capture
// length, and a chunk larger than the whole capture.
func chunkSweep(n int) []int {
	return []int{1, 7, 1000, 4096, 12345, n - 100, n, n + 999}
}

// covertFaults is the fault schedule the faulted covert cases inject:
// enough drop/gain/saturation events on a short capture to exercise the
// resync and retry machinery, with drops guaranteed (asserted below) so
// chunk boundaries land inside spliced regions.
func covertFaults() faults.Config {
	return faults.Config{
		DropRatePerS:     120,
		GainStepRatePerS: 15,
		GainStepMaxDB:    6,
	}
}

// setParallelism sets the process-wide DSP worker count until the test
// ends.
func setParallelism(t *testing.T, p int) {
	dsp.SetDefaultParallelism(p)
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
}

// prepCovert prepares a covert run and sets the DSP worker count for
// the rest of the test.
func prepCovert(t *testing.T, withFaults bool, parallelism int) *core.PreparedCovert {
	t.Helper()
	setParallelism(t, parallelism)
	tb := core.NewTestbed(core.WithSeed(7))
	cfg := core.CovertConfig{PayloadBits: 64}
	if withFaults {
		cfg.Faults = covertFaults()
		cfg.RXResync = true
		cfg.RXCarrierRetries = 2
	}
	p := tb.PrepareCovert(cfg)
	if withFaults && p.Faults.Drops == 0 {
		t.Fatalf("fault schedule injected no drops (report %+v); raise DropRatePerS", p.Faults)
	}
	return p
}

// TestCovertStreamEqualsBatch pins chunking invariance through the
// daemon's checkpointable wrapper: for every chunk size in the sweep —
// hop-aligned or not — with faults off and on, at receiver parallelism
// 1 and 4, the chunked receiver's finalized Demod equals
// covert.Demodulate (the same receiver fed the capture as one chunk)
// field for field (decoded bits, BER inputs, traces, quality report).
// The covert package holds the receiver to the pre-streaming batch
// pipeline, kept there as a test oracle.
func TestCovertStreamEqualsBatch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		withFaults  bool
		parallelism int
	}{
		{"clean_jobs1", false, 1},
		{"clean_jobs4", false, 4},
		{"faulted_jobs1", true, 1},
		{"faulted_jobs4", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepCovert(t, tc.withFaults, tc.parallelism)
			defer p.Cap.Recycle()
			batch := covert.Demodulate(p.Cap, p.RXCfg)
			if !batch.CarrierFound {
				t.Fatalf("batch demod found no carrier (z=%.2f); the differential would be vacuous", batch.Quality.CarrierZ)
			}
			for _, size := range chunkSweep(len(p.Cap.IQ)) {
				rx, err := stream.NewCovertReceiver(p.RXCfg, p.Cap.SampleRate, p.Cap.CenterFreqHz)
				if err != nil {
					t.Fatalf("NewCovertReceiver: %v", err)
				}
				for _, chunk := range stream.Chunks(p.Cap.IQ, size) {
					rx.Push(chunk)
				}
				got := rx.Finalize()
				if !reflect.DeepEqual(got, batch) {
					t.Errorf("chunk size %d: streaming demod diverged from batch\nstream bits: %v\nbatch bits:  %v\nstream: %+v\nbatch:  %+v",
						size, got.Bits, batch.Bits, abbreviateDemod(got), abbreviateDemod(batch))
				}
			}
		})
	}
}

// abbreviateDemod trims the bulky trace fields for failure messages.
func abbreviateDemod(d *covert.Demod) covert.Demod {
	c := *d
	c.Y, c.Conv = nil, nil
	return c
}

// TestCovertStreamShortCapture pins the degenerate gate: a capture
// shorter than 4 FFT windows decodes to the same empty Demod chunked and
// whole, for chunk sizes below, at, and above the capture length.
func TestCovertStreamShortCapture(t *testing.T) {
	cfg := covert.DefaultRXConfig()
	cfg.ExpectedF0 = 360e3
	cap := &sdr.Capture{
		IQ:           make([]complex128, 4*cfg.FFTSize-1),
		SampleRate:   2.4e6,
		CenterFreqHz: 540e3,
	}
	batch := covert.Demodulate(cap, cfg)
	if batch.CarrierFound {
		t.Fatal("short capture unexpectedly found a carrier")
	}
	for _, size := range []int{1, 100, len(cap.IQ), len(cap.IQ) + 1} {
		rx, err := stream.NewCovertReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
		if err != nil {
			t.Fatalf("NewCovertReceiver: %v", err)
		}
		for _, chunk := range stream.Chunks(cap.IQ, size) {
			rx.Push(chunk)
		}
		if got := rx.Finalize(); !reflect.DeepEqual(got, batch) {
			t.Errorf("chunk %d: short-capture demod %+v, want %+v", size, got, batch)
		}
	}
}

// TestCovertStreamRequiresHint pins the receiver contract: the offsets
// must be known before the capture ends, so a config without an
// ExpectedF0 hint is refused up front.
func TestCovertStreamRequiresHint(t *testing.T) {
	cfg := covert.DefaultRXConfig()
	if _, err := stream.NewCovertReceiver(cfg, 2.4e6, 540e3); err == nil {
		t.Fatal("NewCovertReceiver accepted a config without an ExpectedF0 hint")
	}
	cfg.ExpectedF0 = 360e3
	if _, err := stream.NewCovertReceiver(cfg, 2.4e6, 540e3); err != nil {
		t.Fatalf("NewCovertReceiver rejected a hinted config: %v", err)
	}
}

// prepKeylog prepares a keylog run and sets the DSP worker count for
// the rest of the test.
func prepKeylog(t *testing.T, withFaults bool, parallelism int) *core.PreparedKeylog {
	t.Helper()
	setParallelism(t, parallelism)
	tb := core.NewTestbed(core.WithSeed(11))
	cfg := core.KeylogConfig{Words: 4}
	if withFaults {
		cfg.Faults = faults.Config{DropRatePerS: 2, GainStepRatePerS: 0.5, GainStepMaxDB: 6}
		cfg.GapAware = true
	}
	p := tb.PrepareKeylog(cfg)
	if withFaults && p.Faults.Drops == 0 {
		t.Fatalf("fault schedule injected no drops (report %+v)", p.Faults)
	}
	return p
}

// TestKeylogStreamEqualsBatch: the chunked detector's finalized
// Detection equals keylog.Detect (the same detector fed the capture as
// one chunk) for the full chunk sweep, faults off and on, parallelism 1
// and 4. With faults on,
// the injected block drops delete samples before chunking, so the
// splice seams land mid-chunk for large sizes and exactly on chunk
// boundaries for size 1.
func TestKeylogStreamEqualsBatch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		withFaults  bool
		parallelism int
	}{
		{"clean_jobs1", false, 1},
		{"clean_jobs4", false, 4},
		{"faulted_jobs1", true, 1},
		{"faulted_jobs4", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepKeylog(t, tc.withFaults, tc.parallelism)
			defer p.Cap.Recycle()
			batch := keylog.Detect(p.Cap, p.DetCfg)
			if len(batch.Keystrokes) == 0 {
				t.Fatal("batch detector found no keystrokes; the differential would be vacuous")
			}
			for _, size := range chunkSweep(len(p.Cap.IQ)) {
				det, err := stream.NewKeylogDetector(p.DetCfg, p.Cap.SampleRate, p.Cap.CenterFreqHz)
				if err != nil {
					t.Fatalf("NewKeylogDetector: %v", err)
				}
				for _, chunk := range stream.Chunks(p.Cap.IQ, size) {
					det.Push(chunk)
				}
				got := det.Finalize()
				if !reflect.DeepEqual(got, batch) {
					t.Errorf("chunk size %d: streaming detection diverged from batch\nstream: %d keystrokes, thr %v\nbatch:  %d keystrokes, thr %v",
						size, len(got.Keystrokes), got.Threshold, len(batch.Keystrokes), batch.Threshold)
				}
			}
		})
	}
}

// TestKeylogStreamShortCapture: a capture shorter than one STFT frame
// detects nothing, chunked or whole.
func TestKeylogStreamShortCapture(t *testing.T) {
	cfg := keylog.DefaultDetectorConfig()
	cfg.ExpectedF0 = 360e3
	fftSize := dsp.NextPowerOfTwo(int(cfg.Window.Seconds() * 240e3))
	cap := &sdr.Capture{
		IQ:           make([]complex128, fftSize-1),
		SampleRate:   240e3,
		CenterFreqHz: 300e3,
	}
	batch := keylog.Detect(cap, cfg)
	for _, size := range []int{1, fftSize / 3, len(cap.IQ) + 1} {
		det, err := stream.NewKeylogDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
		if err != nil {
			t.Fatalf("NewKeylogDetector: %v", err)
		}
		for _, chunk := range stream.Chunks(cap.IQ, size) {
			det.Push(chunk)
		}
		if got := det.Finalize(); !reflect.DeepEqual(got, batch) {
			t.Errorf("chunk %d: short-capture detection %+v, want %+v", size, got, batch)
		}
	}
}

// TestKeylogStreamContract pins the detector's two prerequisites: an
// ExpectedF0 hint for the initial band and a positive TrackBlock.
func TestKeylogStreamContract(t *testing.T) {
	cfg := keylog.DefaultDetectorConfig()
	if _, err := stream.NewKeylogDetector(cfg, 240e3, 300e3); err == nil {
		t.Fatal("NewKeylogDetector accepted a config without ExpectedF0")
	}
	cfg.ExpectedF0 = 360e3
	cfg.TrackBlock = 0
	if _, err := stream.NewKeylogDetector(cfg, 240e3, 300e3); err == nil {
		t.Fatal("NewKeylogDetector accepted TrackBlock == 0")
	}
	cfg.TrackBlock = keylog.DefaultDetectorConfig().TrackBlock
	if _, err := stream.NewKeylogDetector(cfg, 240e3, 300e3); err != nil {
		t.Fatalf("NewKeylogDetector rejected a valid streaming config: %v", err)
	}
}
