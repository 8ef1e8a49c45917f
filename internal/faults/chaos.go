// Chaos is the daemon-level sibling of the capture-level injector in
// faults.go: where Injector perturbs the *signal* a receiver sees,
// Chaos perturbs the *service* that carries it — sources that stall or
// slow down, processors that die mid-stream, checkpoints that rot on
// disk. The same determinism contract applies: every fault schedule is
// a pure function of (ChaosConfig, seed, stream key, chunk index), so a
// chaos run is replayable bit-for-bit and a recovery bug found under
// seed S reproduces under seed S forever.
//
// The classes map to the failure paths internal/stream supervises:
//
//   - stall — a Source.Next that blocks past the supervisor's deadline
//     (exercises stall quarantine and the restore-and-resume path);
//   - slow — a Source.Next that is late but within deadline
//     (exercises backpressure, never quarantine);
//   - kill — a Processor.Push that panics at a scheduled chunk
//     (exercises quarantine, and — combined with checkpoints — the
//     restore-and-resume path);
//   - corrupt — a checkpoint file with a flipped byte (exercises the
//     digest check and the restore-or-start-fresh fallback).
package faults

import (
	"fmt"
	"os"
	"time"

	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// ChunkSource and ChunkProcessor mirror stream.Source and
// stream.Processor structurally instead of importing internal/stream —
// faults sits below the service layer in the dependency order (covert's
// tests use faults, and stream uses covert), so the interfaces are
// re-stated here and Go's structural typing makes the wrappers
// drop-in for the daemon's supervision API.
type ChunkSource interface {
	Next() ([]complex128, error)
}

// ChunkProcessor mirrors stream.Processor.
type ChunkProcessor interface {
	Push(chunk []complex128)
}

// chunkCheckpointer mirrors stream.Checkpointer.
type chunkCheckpointer interface {
	ChunkProcessor
	EncodeState() []byte
	RestoreState([]byte) error
	Consumed() int
}

// Chaos telemetry: one counter per injected event class, so a chaos
// run's snapshot states exactly which paths were exercised.
var (
	cStalls   = telemetry.NewCounter("faults.chaos.stalls")
	cSlows    = telemetry.NewCounter("faults.chaos.slows")
	cKills    = telemetry.NewCounter("faults.chaos.kills")
	cCorrupts = telemetry.NewCounter("faults.chaos.corruptions")
)

// Per-class substream derivation keys: a stream's chaos key is combined
// with the class tag so the stall/slow schedule, the kill chunk, and
// the corruption offset are independent draws — enabling one class
// never moves another's schedule.
const (
	chaosTagSource  = 1
	chaosTagKill    = 2
	chaosTagCorrupt = 3
)

// ChaosConfig describes daemon-level fault intensity. The zero value
// injects nothing. Probabilities are per chunk.
type ChaosConfig struct {
	// StallProb is the per-chunk probability that Next blocks for
	// StallFor before delivering — meant to exceed the supervisor's
	// stall deadline.
	StallProb float64
	StallFor  time.Duration
	// SlowProb is the per-chunk probability that Next sleeps SlowFor
	// before delivering — meant to stay within the deadline.
	SlowProb float64
	SlowFor  time.Duration
	// Kill schedules one processor panic per stream at a chunk index
	// drawn uniformly from [1, ceil(KillFrac·total)] (0 disables). The
	// panic fires once; a restored processor replays past it.
	Kill     bool
	KillFrac float64
	// CorruptCheckpoints flips one deterministic byte in a checkpoint
	// file via CorruptFile.
	CorruptCheckpoints bool
}

// Validate rejects nonsensical configurations.
func (c ChaosConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"StallProb", c.StallProb}, {"SlowProb", c.SlowProb}, {"KillFrac", c.KillFrac}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.StallProb > 0 && c.StallFor <= 0 {
		return fmt.Errorf("faults: StallProb set but StallFor is %v", c.StallFor)
	}
	if c.SlowProb > 0 && c.SlowFor <= 0 {
		return fmt.Errorf("faults: SlowProb set but SlowFor is %v", c.SlowFor)
	}
	return nil
}

// Enabled reports whether any chaos class is active.
func (c ChaosConfig) Enabled() bool {
	return c.StallProb > 0 || c.SlowProb > 0 || c.Kill || c.CorruptCheckpoints
}

// Chaos derives deterministic fault schedules for daemon streams. All
// methods are pure functions of (config, seed, key, index) — a Chaos
// value holds no mutable state, so it is safe to share across
// goroutines and a schedule queried twice is the same schedule.
type Chaos struct {
	cfg  ChaosConfig
	seed int64
}

// NewChaos validates cfg and binds it to a seed.
func NewChaos(cfg ChaosConfig, seed int64) (*Chaos, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Chaos{cfg: cfg, seed: seed}, nil
}

// ChunkFault is one chunk's scheduled source fault.
type ChunkFault int

const (
	FaultNone ChunkFault = iota
	FaultStall
	FaultSlow
)

// Schedule returns the source-fault schedule for a stream's first n
// chunks: the faults a Source wrapper under the same key injects, in
// order.
func (c *Chaos) Schedule(key uint64, n int) []ChunkFault {
	rng := xrand.Sub(c.seed, key<<8|chaosTagSource)
	out := make([]ChunkFault, n)
	for i := range out {
		out[i] = c.draw(&rng)
	}
	return out
}

// draw decides one chunk's source fault. It draws exactly two values
// regardless of outcome, so a schedule is stable under any (StallProb,
// SlowProb) combination — changing one probability never shifts which
// random values decide the other chunks. Stall wins when both fire.
func (c *Chaos) draw(rng *xrand.Lite) ChunkFault {
	stall := rng.Float64() < c.cfg.StallProb
	slow := rng.Float64() < c.cfg.SlowProb
	switch {
	case stall:
		return FaultStall
	case slow:
		return FaultSlow
	}
	return FaultNone
}

// KillChunk returns the 1-based chunk index at which the stream's
// processor panic is scheduled, or 0 when the kill class is off. The
// index is drawn from [1, max(1, ceil(KillFrac·totalChunks))] so a
// small KillFrac kills early in the stream — leaving plenty of chunks
// after the kill for the restore path to replay.
func (c *Chaos) KillChunk(key uint64, totalChunks int) int {
	if !c.cfg.Kill || totalChunks < 1 {
		return 0
	}
	frac := c.cfg.KillFrac
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	hi := int(float64(totalChunks)*frac + 0.999999)
	if hi < 1 {
		hi = 1
	}
	if hi > totalChunks {
		hi = totalChunks
	}
	rng := xrand.Sub(c.seed, key<<8|chaosTagKill)
	return 1 + rng.Intn(hi)
}

// Source wraps src with the stream's scheduled stall/slow faults, drawn
// chunk by chunk in Schedule's order: a stalled chunk sleeps StallFor, a
// slow chunk sleeps SlowFor, and delivery order is untouched — chaos
// perturbs timing, never data, which is what lets a chaos run demand
// byte-identical output.
func (c *Chaos) Source(key uint64, src ChunkSource) ChunkSource {
	return &chaosSource{inner: src, chaos: c, rng: xrand.Sub(c.seed, key<<8|chaosTagSource)}
}

type chaosSource struct {
	inner ChunkSource
	chaos *Chaos
	rng   xrand.Lite
}

func (s *chaosSource) Next() ([]complex128, error) {
	switch s.chaos.draw(&s.rng) {
	case FaultStall:
		cStalls.Inc()
		time.Sleep(s.chaos.cfg.StallFor)
	case FaultSlow:
		cSlows.Inc()
		time.Sleep(s.chaos.cfg.SlowFor)
	}
	return s.inner.Next()
}

// Processor wraps proc with a one-shot scheduled panic at the stream's
// KillChunk (counting from 1). With the kill class off, proc is
// returned unwrapped. When proc is a stream.Checkpointer the wrapper is
// too, delegating the checkpoint surface — a killed stream must still
// have checkpoints to restore from.
func (c *Chaos) Processor(key uint64, totalChunks int, proc ChunkProcessor) ChunkProcessor {
	at := c.KillChunk(key, totalChunks)
	if at == 0 {
		return proc
	}
	kp := &killProc{inner: proc, at: at}
	if ck, ok := proc.(chunkCheckpointer); ok {
		return &killCkptProc{killProc: kp, ck: ck}
	}
	return kp
}

type killProc struct {
	inner ChunkProcessor
	seen  int
	at    int
	fired bool
}

func (k *killProc) Push(chunk []complex128) {
	k.seen++
	if !k.fired && k.seen == k.at {
		k.fired = true
		cKills.Inc()
		panic(fmt.Sprintf("faults: chaos kill at chunk %d", k.at))
	}
	k.inner.Push(chunk)
}

// killCkptProc forwards the Checkpointer surface through the kill
// wrapper so the daemon still checkpoints the inner processor. Note the
// kill counter itself is not checkpointed: a restored processor is a
// fresh wrapper-less instance, so the panic fires at most once per
// chaos run — which is the point (crash, restore, converge).
type killCkptProc struct {
	*killProc
	ck chunkCheckpointer
}

func (k *killCkptProc) EncodeState() []byte         { return k.ck.EncodeState() }
func (k *killCkptProc) RestoreState(b []byte) error { return k.ck.RestoreState(b) }
func (k *killCkptProc) Consumed() int               { return k.ck.Consumed() }

// CorruptFile flips one deterministically chosen byte of the file —
// the checkpoint-corruption class. The byte offset and XOR mask depend
// only on (seed, key), so a corrupted checkpoint is the same corrupted
// checkpoint on every replay. The mask is never zero, so the flip is
// always a real change the digest must catch.
func (c *Chaos) CorruptFile(key uint64, path string) error {
	if !c.cfg.CorruptCheckpoints {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faults: cannot corrupt empty file %s", path)
	}
	rng := xrand.Sub(c.seed, key<<8|chaosTagCorrupt)
	off := rng.Intn(len(data))
	mask := byte(rng.Uint64()%255) + 1
	data[off] ^= mask
	cCorrupts.Inc()
	return os.WriteFile(path, data, 0o644)
}
