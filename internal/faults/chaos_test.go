package faults_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmuleak/internal/covert"
	"pmuleak/internal/faults"
	"pmuleak/internal/stream"
)

func mustChaos(t *testing.T, cfg faults.ChaosConfig, seed int64) *faults.Chaos {
	t.Helper()
	c, err := faults.NewChaos(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosConfigValidate: probabilities outside [0,1] and
// probability-without-duration combinations are rejected.
func TestChaosConfigValidate(t *testing.T) {
	bad := []faults.ChaosConfig{
		{StallProb: -0.1, StallFor: time.Millisecond},
		{StallProb: 1.5, StallFor: time.Millisecond},
		{SlowProb: 2, SlowFor: time.Millisecond},
		{KillFrac: -1},
		{StallProb: 0.5}, // StallFor missing
		{SlowProb: 0.5},  // SlowFor missing
	}
	for i, cfg := range bad {
		if _, err := faults.NewChaos(cfg, 1); err == nil {
			t.Errorf("case %d: NewChaos accepted invalid config %+v", i, cfg)
		}
	}
	if (faults.ChaosConfig{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	if !(faults.ChaosConfig{Kill: true}).Enabled() {
		t.Error("kill config reports disabled")
	}
}

// TestScheduleReplayable: a schedule is a pure function of (seed, key)
// — identical inputs give identical schedules, and different keys or
// seeds give independent ones.
func TestScheduleReplayable(t *testing.T) {
	cfg := faults.ChaosConfig{
		StallProb: 0.2, StallFor: time.Millisecond,
		SlowProb: 0.3, SlowFor: time.Millisecond,
	}
	a := mustChaos(t, cfg, 42).Schedule(7, 512)
	b := mustChaos(t, cfg, 42).Schedule(7, 512)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, key) produced different schedules")
	}
	stalls, slows := 0, 0
	for _, f := range a {
		switch f {
		case faults.FaultStall:
			stalls++
		case faults.FaultSlow:
			slows++
		}
	}
	if stalls == 0 || slows == 0 {
		t.Fatalf("512-chunk schedule at p=0.2/0.3 drew stalls=%d slows=%d — substream looks degenerate", stalls, slows)
	}
	if reflect.DeepEqual(a, mustChaos(t, cfg, 42).Schedule(8, 512)) {
		t.Fatal("different keys produced identical schedules")
	}
	if reflect.DeepEqual(a, mustChaos(t, cfg, 43).Schedule(7, 512)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScheduleTwoDrawStability: the schedule consumes exactly two
// draws per chunk regardless of outcome, so toggling SlowProb never
// moves which chunks stall — the per-class independence the chaos
// docs promise.
func TestScheduleTwoDrawStability(t *testing.T) {
	stallOnly := mustChaos(t, faults.ChaosConfig{StallProb: 0.15, StallFor: time.Millisecond}, 9).Schedule(3, 256)
	both := mustChaos(t, faults.ChaosConfig{
		StallProb: 0.15, StallFor: time.Millisecond,
		SlowProb: 0.4, SlowFor: time.Millisecond,
	}, 9).Schedule(3, 256)
	for i := range stallOnly {
		if (stallOnly[i] == faults.FaultStall) != (both[i] == faults.FaultStall) {
			t.Fatalf("chunk %d: stall decision moved when SlowProb changed (%v vs %v)",
				i, stallOnly[i], both[i])
		}
	}
}

// TestKillChunkDeterministicAndBounded: the kill index replays
// exactly and always lands in [1, ceil(KillFrac*total)].
func TestKillChunkDeterministicAndBounded(t *testing.T) {
	cfg := faults.ChaosConfig{Kill: true, KillFrac: 0.5}
	for key := uint64(0); key < 32; key++ {
		c := mustChaos(t, cfg, 11)
		total := 20
		at := c.KillChunk(key, total)
		if at != mustChaos(t, cfg, 11).KillChunk(key, total) {
			t.Fatalf("key %d: kill chunk not replayable", key)
		}
		hi := int(math.Ceil(0.5 * float64(total)))
		if at < 1 || at > hi {
			t.Fatalf("key %d: kill chunk %d outside [1, %d]", key, at, hi)
		}
	}
	if got := mustChaos(t, faults.ChaosConfig{}, 11).KillChunk(1, 20); got != 0 {
		t.Fatalf("kill disabled but KillChunk = %d", got)
	}
	if got := mustChaos(t, cfg, 11).KillChunk(1, 0); got != 0 {
		t.Fatalf("zero-chunk stream but KillChunk = %d", got)
	}
}

// collectProc counts chunks.
type collectProc struct{ chunks int }

func (p *collectProc) Push(c []complex128) { p.chunks++ }

// TestKillProcFiresOnce: the wrapped processor panics exactly at the
// scheduled chunk, exactly once — a replay past the kill point (the
// restore path) runs clean.
func TestKillProcFiresOnce(t *testing.T) {
	c := mustChaos(t, faults.ChaosConfig{Kill: true, KillFrac: 1}, 3)
	inner := &collectProc{}
	total := 10
	at := c.KillChunk(5, total)
	proc := c.Processor(5, total, inner)
	if reflect.TypeOf(proc) == reflect.TypeOf(inner) {
		t.Fatal("kill class on but processor returned unwrapped")
	}
	chunk := make([]complex128, 8)
	fired := 0
	for i := 1; i <= total; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					fired++
					if i != at {
						t.Fatalf("panic at chunk %d, scheduled %d", i, at)
					}
					if !strings.Contains(r.(string), "chaos kill") {
						t.Fatalf("unexpected panic payload %v", r)
					}
				}
			}()
			proc.Push(chunk)
		}()
	}
	if fired != 1 {
		t.Fatalf("kill fired %d times, want exactly 1", fired)
	}
	// The killed chunk itself is not delivered to the inner processor;
	// all others are.
	if inner.chunks != total-1 {
		t.Fatalf("inner processor saw %d chunks, want %d", inner.chunks, total-1)
	}
}

// TestKillProcPreservesCheckpointer: wrapping a stream.Checkpointer
// keeps the checkpoint surface — the daemon must still be able to
// persist a stream that is scheduled to die.
func TestKillProcPreservesCheckpointer(t *testing.T) {
	rx := freshReceiver(t)
	c := mustChaos(t, faults.ChaosConfig{Kill: true, KillFrac: 1}, 3)
	proc := c.Processor(1, 10, rx)
	ck, ok := proc.(stream.Checkpointer)
	if !ok {
		t.Fatal("kill wrapper dropped the Checkpointer surface")
	}
	proc.Push(make([]complex128, 4096))
	if ck.Consumed() != 4096 {
		t.Fatalf("delegated Consumed = %d, want 4096", ck.Consumed())
	}
	state := ck.EncodeState()
	fresh := freshReceiver(t)
	if err := fresh.RestoreState(state); err != nil {
		t.Fatalf("state encoded through the kill wrapper does not restore: %v", err)
	}
	if fresh.Consumed() != 4096 {
		t.Fatalf("restored Consumed = %d, want 4096", fresh.Consumed())
	}
}

// freshReceiver builds a minimal covert receiver for checkpoint
// surface tests.
func freshReceiver(t *testing.T) *stream.CovertReceiver {
	t.Helper()
	cfg := covert.DefaultRXConfig()
	cfg.ExpectedF0 = 360e3
	rx, err := stream.NewCovertReceiver(cfg, 2.4e6, 540e3)
	if err != nil {
		t.Fatal(err)
	}
	return rx
}

// TestChaosSourceDeliversEverything: timing faults never reorder or
// drop data — a wrapped source yields the same chunk sequence as the
// bare one.
func TestChaosSourceDeliversEverything(t *testing.T) {
	iq := make([]complex128, 1000)
	for i := range iq {
		iq[i] = complex(float64(i), 0)
	}
	cfg := faults.ChaosConfig{
		StallProb: 0.3, StallFor: time.Millisecond,
		SlowProb: 0.3, SlowFor: time.Microsecond,
	}
	src := mustChaos(t, cfg, 5).Source(2, stream.NewSliceSource(iq, 64))
	var got []complex128
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c...)
	}
	if !reflect.DeepEqual(got, iq) {
		t.Fatal("chaos source altered the data stream")
	}
}

// TestCorruptFileDeterministic: the corruption flips exactly one byte,
// at the same offset with the same mask on every replay, and never a
// zero mask.
func TestCorruptFileDeterministic(t *testing.T) {
	dir := t.TempDir()
	orig := []byte("EMCK checkpoint payload with enough bytes to pick from")
	write := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, append([]byte(nil), orig...), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	c := mustChaos(t, faults.ChaosConfig{CorruptCheckpoints: true}, 77)
	p1 := write("a.ckpt")
	if err := c.CorruptFile(3, p1); err != nil {
		t.Fatal(err)
	}
	got1, _ := os.ReadFile(p1)
	diff := 0
	for i := range orig {
		if got1[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want exactly 1", diff)
	}
	p2 := write("b.ckpt")
	if err := c.CorruptFile(3, p2); err != nil {
		t.Fatal(err)
	}
	got2, _ := os.ReadFile(p2)
	if !bytes.Equal(got1, got2) {
		t.Fatal("same (seed, key, content) produced different corruptions")
	}
	// Disabled class is a no-op.
	off := mustChaos(t, faults.ChaosConfig{}, 77)
	p3 := write("c.ckpt")
	if err := off.CorruptFile(3, p3); err != nil {
		t.Fatal(err)
	}
	if got3, _ := os.ReadFile(p3); !bytes.Equal(got3, orig) {
		t.Fatal("disabled corruption touched the file")
	}
}
