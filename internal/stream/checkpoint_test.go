package stream_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pmuleak/internal/covert"
	"pmuleak/internal/keylog"
	"pmuleak/internal/sdr"
	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
)

// freshCovert builds a receiver for the prepared capture, failing the
// test on construction errors.
func freshCovert(t *testing.T, cfg covert.RXConfig, cap *sdr.Capture) *stream.CovertReceiver {
	t.Helper()
	rx, err := stream.NewCovertReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		t.Fatalf("NewCovertReceiver: %v", err)
	}
	return rx
}

func freshKeylog(t *testing.T, cfg keylog.DetectorConfig, cap *sdr.Capture) *stream.KeylogDetector {
	t.Helper()
	kd, err := stream.NewKeylogDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		t.Fatalf("NewKeylogDetector: %v", err)
	}
	return kd
}

// TestKillAndRestoreMatchesBatch is the acceptance criterion for
// checkpoint/restore: a daemon checkpoints a stream, "dies" with the
// stream mid-capture at an arbitrary chunk boundary (the processor is
// simply abandoned, exactly what SIGKILL leaves behind), a fresh
// processor restores from the checkpoint directory and replays the
// remaining samples at a DIFFERENT chunking — and the final output is
// reflect.DeepEqual to the uninterrupted batch pipeline, with faults
// injected, at receiver parallelism 1 and 4.
func TestKillAndRestoreMatchesBatch(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		jobs := jobs
		t.Run(fmt.Sprintf("covert_jobs%d", jobs), func(t *testing.T) {
			p := prepCovert(t, true, jobs)
			defer p.Cap.Recycle()
			batch := covert.Demodulate(p.Cap, p.RXCfg)
			if !batch.CarrierFound {
				t.Fatal("batch demod found no carrier; the differential would be vacuous")
			}
			chunks := stream.Chunks(p.Cap.IQ, 12345)
			for _, cut := range []int{1, 2, len(chunks) / 2} {
				name := fmt.Sprintf("krcov%d_%d", jobs, cut)
				dir := t.TempDir()
				d := stream.NewDaemon(2, stream.WithCheckpoints(dir, 1))
				s := attach(t, d, name, freshCovert(t, p.RXCfg, p.Cap), 4)
				for i := 0; i < cut; i++ {
					s.Push(chunks[i])
				}
				s.Close()
				d.Drain()
				// The daemon is dead; its receiver is gone. Restore into a
				// fresh one and replay the tail at a different chunk size.
				rx := freshCovert(t, p.RXCfg, p.Cap)
				if err := stream.RestoreCheckpoint(dir, name, rx); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				consumed := rx.Consumed()
				if consumed == 0 {
					t.Fatalf("cut %d: checkpoint recorded no progress", cut)
				}
				for _, c := range stream.Chunks(p.Cap.IQ[consumed:], 4096) {
					rx.Push(c)
				}
				if got := rx.Finalize(); !reflect.DeepEqual(got, batch) {
					t.Errorf("cut %d: restored demod diverged from batch\nrestored bits: %v\nbatch bits:    %v",
						cut, got.Bits, batch.Bits)
				}
			}
		})
		t.Run(fmt.Sprintf("keylog_jobs%d", jobs), func(t *testing.T) {
			p := prepKeylog(t, true, jobs)
			defer p.Cap.Recycle()
			batch := keylog.Detect(p.Cap, p.DetCfg)
			chunks := stream.Chunks(p.Cap.IQ, 30000)
			for _, cut := range []int{1, len(chunks) / 3, len(chunks) - 1} {
				name := fmt.Sprintf("krkey%d_%d", jobs, cut)
				dir := t.TempDir()
				d := stream.NewDaemon(2, stream.WithCheckpoints(dir, 1))
				s := attach(t, d, name, freshKeylog(t, p.DetCfg, p.Cap), 4)
				for i := 0; i < cut; i++ {
					s.Push(chunks[i])
				}
				s.Close()
				d.Drain()
				kd := freshKeylog(t, p.DetCfg, p.Cap)
				if err := stream.RestoreCheckpoint(dir, name, kd); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				consumed := kd.Consumed()
				if consumed == 0 {
					t.Fatalf("cut %d: checkpoint recorded no progress", cut)
				}
				for _, c := range stream.Chunks(p.Cap.IQ[consumed:], 7777) {
					kd.Push(c)
				}
				if got := kd.Finalize(); !reflect.DeepEqual(got, batch) {
					t.Errorf("cut %d: restored detection diverged from batch (%d vs %d keystrokes)",
						cut, len(got.Keystrokes), len(batch.Keystrokes))
				}
			}
		})
	}
}

// TestCheckpointRoundTripMidStream pins the codec itself, independent
// of the daemon: encode after k chunks, restore into a fresh processor,
// and the (original, restored) pair must finish identically when fed
// the same tail.
func TestCheckpointRoundTripMidStream(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	chunks := stream.Chunks(p.Cap.IQ, 9999)
	orig := freshCovert(t, p.RXCfg, p.Cap)
	for i := 0; i < 2; i++ {
		orig.Push(chunks[i])
	}
	state := orig.EncodeState()
	restored := freshCovert(t, p.RXCfg, p.Cap)
	if err := restored.RestoreState(state); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got, want := restored.Consumed(), orig.Consumed(); got != want {
		t.Fatalf("restored Consumed() = %d, want %d", got, want)
	}
	for _, c := range chunks[2:] {
		orig.Push(c)
		restored.Push(c)
	}
	if a, b := orig.Finalize(), restored.Finalize(); !reflect.DeepEqual(a, b) {
		t.Fatal("original and restored receivers finalized differently")
	}
}

// TestRestoreRejectsCorruptCheckpoint: a flipped byte anywhere in the
// file must fail the digest (or a structural check) with an error —
// and leave the fresh target untouched, so it can still run from zero.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	batch := covert.Demodulate(p.Cap, p.RXCfg)
	dir := t.TempDir()
	orig := freshCovert(t, p.RXCfg, p.Cap)
	orig.Push(stream.Chunks(p.Cap.IQ, 20000)[0])
	if err := stream.WriteCheckpoint(dir, "corrupt", orig); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	path := stream.CheckpointPath(dir, "corrupt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 7, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rx := freshCovert(t, p.RXCfg, p.Cap)
		if err := stream.RestoreCheckpoint(dir, "corrupt", rx); err == nil {
			t.Fatalf("restore accepted a checkpoint with byte %d flipped", off)
		}
		// The failed restore must not have poisoned the receiver.
		for _, c := range stream.Chunks(p.Cap.IQ, 16384) {
			rx.Push(c)
		}
		if got := rx.Finalize(); !reflect.DeepEqual(got, batch) {
			t.Fatalf("receiver diverged from batch after a rejected restore (byte %d)", off)
		}
	}
}

// TestRestoreRejectsKindMismatch: a covert checkpoint must not load
// into a keylog detector (and vice versa) — the kind byte errors out.
func TestRestoreRejectsKindMismatch(t *testing.T) {
	pc := prepCovert(t, false, 1)
	defer pc.Cap.Recycle()
	pk := prepKeylog(t, false, 1)
	defer pk.Cap.Recycle()
	rx := freshCovert(t, pc.RXCfg, pc.Cap)
	rx.Push(stream.Chunks(pc.Cap.IQ, 20000)[0])
	kd := freshKeylog(t, pk.DetCfg, pk.Cap)
	if err := kd.RestoreState(rx.EncodeState()); err == nil {
		t.Fatal("keylog detector accepted a covert checkpoint")
	}
	kd2 := freshKeylog(t, pk.DetCfg, pk.Cap)
	kd2.Push(stream.Chunks(pk.Cap.IQ, 30000)[0])
	rx2 := freshCovert(t, pc.RXCfg, pc.Cap)
	if err := rx2.RestoreState(kd2.EncodeState()); err == nil {
		t.Fatal("covert receiver accepted a keylog checkpoint")
	}
}

// asVersion1 returns a copy of a checkpoint with its header's version
// field set to 1; the payload digest still matches.
func asVersion1(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[4:], 1)
	return out
}

// TestRestoreRejectsVersion1: version 1 carried the running period
// tracker and one trace per carrier-retry level; a version-2 processor
// refuses it by its header rather than misreading the payload.
func TestRestoreRejectsVersion1(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	rx := freshCovert(t, p.RXCfg, p.Cap)
	rx.Push(stream.Chunks(p.Cap.IQ, 20000)[0])
	err := freshCovert(t, p.RXCfg, p.Cap).RestoreState(asVersion1(rx.EncodeState()))
	if err == nil || !strings.Contains(err.Error(), "version 1 unsupported") {
		t.Fatalf("version-1 checkpoint: err = %v, want a version-unsupported error", err)
	}
}

// TestRestoreRequiresFreshProcessor: restoring over a processor that
// has already consumed samples must error, not splice states.
func TestRestoreRequiresFreshProcessor(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	rx := freshCovert(t, p.RXCfg, p.Cap)
	chunks := stream.Chunks(p.Cap.IQ, 20000)
	rx.Push(chunks[0])
	state := rx.EncodeState()
	rx.Push(chunks[1])
	if err := rx.RestoreState(state); err == nil {
		t.Fatal("RestoreState accepted a non-fresh receiver")
	}
}

// TestCheckpointWriteErrorSurfacedNotFatal: an unwritable checkpoint
// location (here a path under a regular file — robust even when the
// test runs as root, unlike permission bits) must yield an error from
// WriteCheckpoint and count on stream.checkpoint.errors, also through
// the daemon, while the stream itself still completes and stays
// byte-identical.
func TestCheckpointWriteErrorSurfacedNotFatal(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	batch := covert.Demodulate(p.Cap, p.RXCfg)

	// A regular file where the directory should be: every write under it
	// fails with ENOTDIR, for root and mortals alike.
	tmp := t.TempDir()
	notDir := filepath.Join(tmp, "occupied")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	badDir := filepath.Join(notDir, "ckpt")

	rx := freshCovert(t, p.RXCfg, p.Cap)
	rx.Push(stream.Chunks(p.Cap.IQ, 20000)[0])
	errsBefore := telemetry.Capture().Counters["stream.checkpoint.errors"]
	if err := stream.WriteCheckpoint(badDir, "x", rx); err == nil {
		t.Fatal("WriteCheckpoint into a file-as-directory path succeeded")
	}
	if got := telemetry.Capture().Counters["stream.checkpoint.errors"]; got != errsBefore+1 {
		t.Fatalf("stream.checkpoint.errors = %d, want %d", got, errsBefore+1)
	}

	// RestoreCheckpoint from the same impossible path errors too (and a
	// missing file in a real directory is distinguishable as not-exist).
	if err := stream.RestoreCheckpoint(badDir, "x", freshCovert(t, p.RXCfg, p.Cap)); err == nil {
		t.Fatal("RestoreCheckpoint from a file-as-directory path succeeded")
	}
	if err := stream.RestoreCheckpoint(tmp, "nope", freshCovert(t, p.RXCfg, p.Cap)); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint error = %v, want os.IsNotExist", err)
	}

	// Through the daemon: checkpoint writes fail every burst, the stream
	// finishes anyway, and the failures are counted.
	errsBefore = telemetry.Capture().Counters["stream.checkpoint.errors"]
	d := stream.NewDaemon(1, stream.WithCheckpoints(badDir, 1))
	rx2 := freshCovert(t, p.RXCfg, p.Cap)
	s := attach(t, d, "ckptfail", rx2, 4)
	for _, c := range stream.Chunks(p.Cap.IQ, 16384) {
		if !s.Push(c) {
			t.Fatal("push refused on a healthy stream")
		}
	}
	s.Close()
	d.Drain()
	if got := telemetry.Capture().Counters["stream.checkpoint.errors"]; got <= errsBefore {
		t.Fatalf("stream.checkpoint.errors = %d after the daemon run, want more than %d: every checkpoint write failed", got, errsBefore)
	}
	if s.Quarantined() {
		t.Fatal("checkpoint write failures quarantined the stream")
	}
	if got := rx2.Finalize(); !reflect.DeepEqual(got, batch) {
		t.Fatal("stream with failing checkpoints diverged from batch")
	}
}

// FuzzCheckpointDecode: arbitrary bytes fed to RestoreState on both
// processor kinds must produce errors, never panics or junk states the
// caller can't detect. The corpus seeds valid checkpoints of both kinds
// plus classic corruptions (truncation, flipped bytes, wrong magic).
func FuzzCheckpointDecode(f *testing.F) {
	covCfg := covert.DefaultRXConfig()
	covCfg.ExpectedF0 = 360e3
	covCap := &sdr.Capture{
		IQ:           make([]complex128, 6*1024), // six of the receiver's 1024-point FFT windows
		SampleRate:   2.4e6,
		CenterFreqHz: 540e3,
	}
	keyCfg := keylog.DefaultDetectorConfig()
	keyCfg.ExpectedF0 = 360e3

	rxSeed, err := stream.NewCovertReceiver(covCfg, covCap.SampleRate, covCap.CenterFreqHz)
	if err != nil {
		f.Fatal(err)
	}
	rxSeed.Push(covCap.IQ[:5000])
	valid := rxSeed.EncodeState()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:23])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped)

	kdSeed, err := stream.NewKeylogDetector(keyCfg, 240e3, 300e3)
	if err != nil {
		f.Fatal(err)
	}
	kdSeed.Push(make([]complex128, 4000))
	f.Add(kdSeed.EncodeState())
	f.Add([]byte{})
	f.Add([]byte("EMCK"))
	f.Add([]byte("not a checkpoint at all, just bytes"))
	// A version-1 header over a valid payload, and a detector past its
	// first TrackBlock (band samples and block rows both present).
	f.Add(asVersion1(valid))
	kdBlock, err := stream.NewKeylogDetector(keyCfg, 240e3, 300e3)
	if err != nil {
		f.Fatal(err)
	}
	kdBlock.Push(make([]complex128, 500000))
	f.Add(kdBlock.EncodeState())

	f.Fuzz(func(t *testing.T, data []byte) {
		rx, err := stream.NewCovertReceiver(covCfg, covCap.SampleRate, covCap.CenterFreqHz)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.RestoreState(data); err == nil {
			// A successful decode must leave a coherent receiver: pushing
			// more samples and finalizing must not blow up.
			rx.Push(covCap.IQ[:1000])
			rx.Finalize()
		}
		kd, err := stream.NewKeylogDetector(keyCfg, 240e3, 300e3)
		if err != nil {
			t.Fatal(err)
		}
		if err := kd.RestoreState(data); err == nil {
			kd.Push(make([]complex128, 1000))
			kd.Finalize()
		}
	})
}
