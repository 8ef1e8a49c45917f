package stream

// Checkpoint/restore for the stream processors — the piece that extends
// the repo's determinism contract across process death. A processor's
// carried state is already compact by construction (the whole point of
// streaming: a 1024-point PSD plus n/8 decimated samples, never raw IQ), and
// covert.Receiver and keylog.Detector each expose it as a state
// snapshot; a checkpoint is a versioned binary serialization of that
// snapshot. Restoring it into a freshly constructed processor and
// replaying the capture from Consumed() onward finishes byte-identical
// to an uninterrupted run: float bits round-trip exactly through
// math.Float64bits, and both processors are chunk-size-invariant, so the
// resumed chunk boundaries need not match the original ones.
//
// Wire format (little endian):
//
//	magic   [4]byte  "EMCK"
//	version uint16   (currently 2)
//	kind    uint8    (1 = covert receiver, 2 = keylog detector)
//	flags   uint8    (reserved, must be 0)
//	paylen  uint64   payload byte count
//	digest  uint64   FNV-64a over the payload bytes
//	payload [paylen]byte
//
// Version 2 dropped version 1's running period tracker and keeps one
// decimated trace per distinct carrier-retry offset set instead of one
// per retry level; a version-1 file fails with "version unsupported".
//
// Decode is defensive end to end: a truncated, corrupted, or
// wrong-kind checkpoint returns an error — never a panic and never a
// silently wrong restore (the digest catches bit flips, and the
// processor's Restore checks the decoded state against its own geometry
// and sample count). FuzzCheckpointDecode pins that contract.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"pmuleak/internal/covert"
	"pmuleak/internal/keylog"
	"pmuleak/internal/telemetry"
)

var (
	ckptWrites = telemetry.NewCounter("stream.checkpoint.writes")
	ckptBytes  = telemetry.NewCounter("stream.checkpoint.bytes")
	ckptErrors = telemetry.NewCounter("stream.checkpoint.errors")
)

// Checkpointer is a Processor whose carried state can be serialized and
// restored. Both stream processors implement it. RestoreState must be
// called on a freshly constructed processor built from the same config
// and tuning as the one that produced the checkpoint; the byte-identity
// guarantee only holds under that pairing (the checkpoint carries the
// mutable state, the constructor re-derives everything else).
type Checkpointer interface {
	Processor
	// EncodeState serializes the processor's carried state, including
	// the consumed-sample count.
	EncodeState() []byte
	// RestoreState replaces a fresh processor's state with a previously
	// encoded one. It returns an error — never panics — on corrupted,
	// truncated, or mismatched input, leaving the processor unusable
	// only if it reports success was impossible (the processor is
	// untouched on any header or digest failure).
	RestoreState(data []byte) error
	// Consumed returns how many samples the processor has absorbed —
	// the offset a resuming producer must continue from.
	Consumed() int
}

const (
	ckptVersion = 2

	ckptKindCovert uint8 = 1
	ckptKindKeylog uint8 = 2

	ckptHeaderLen = 4 + 2 + 1 + 1 + 8 + 8
)

var ckptMagic = [4]byte{'E', 'M', 'C', 'K'}

// sealCheckpoint wraps a payload in the versioned header.
func sealCheckpoint(kind uint8, payload []byte) []byte {
	out := make([]byte, ckptHeaderLen+len(payload))
	copy(out, ckptMagic[:])
	binary.LittleEndian.PutUint16(out[4:], ckptVersion)
	out[6] = kind
	out[7] = 0
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	binary.LittleEndian.PutUint64(out[16:], h.Sum64())
	copy(out[ckptHeaderLen:], payload)
	return out
}

// openCheckpoint validates the header and digest and returns the
// payload.
func openCheckpoint(kind uint8, data []byte) ([]byte, error) {
	if len(data) < ckptHeaderLen {
		return nil, fmt.Errorf("stream: checkpoint truncated: %d bytes, header needs %d", len(data), ckptHeaderLen)
	}
	if [4]byte(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("stream: checkpoint magic %q is not %q", data[:4], ckptMagic[:])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != ckptVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d unsupported (want %d)", v, ckptVersion)
	}
	if data[6] != kind {
		return nil, fmt.Errorf("stream: checkpoint kind %d does not match processor kind %d", data[6], kind)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("stream: checkpoint flags %#x unsupported", data[7])
	}
	paylen := binary.LittleEndian.Uint64(data[8:])
	if paylen != uint64(len(data)-ckptHeaderLen) {
		return nil, fmt.Errorf("stream: checkpoint payload length %d does not match %d trailing bytes", paylen, len(data)-ckptHeaderLen)
	}
	payload := data[ckptHeaderLen:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(data[16:]); got != want {
		return nil, fmt.Errorf("stream: checkpoint digest mismatch: payload hashes to %#x, header says %#x", got, want)
	}
	return payload, nil
}

// ckptEnc appends fixed-width little-endian fields to a payload.
type ckptEnc struct{ b []byte }

func (e *ckptEnc) u64(v uint64)      { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *ckptEnc) i64(v int)         { e.u64(uint64(int64(v))) }
func (e *ckptEnc) f64(v float64)     { e.u64(math.Float64bits(v)) }
func (e *ckptEnc) c128(v complex128) { e.f64(real(v)); e.f64(imag(v)) }

func (e *ckptEnc) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *ckptEnc) c128s(v []complex128) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.c128(x)
	}
}

// ckptDec is the error-latching cursor over a payload. Every accessor
// becomes a no-op returning zero after the first failure, so decoders
// read straight through and check err once.
type ckptDec struct {
	b   []byte
	off int
	err error
}

func (d *ckptDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("stream: checkpoint payload: "+format, args...)
	}
}

func (d *ckptDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *ckptDec) i64() int {
	v := int64(d.u64())
	if d.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		// Every integer in a processor's state is a sample, frame, or
		// bin count; anything outside int32 range is corruption, and
		// catching it here keeps later make() calls sane on 32-bit.
		d.fail("integer field %d out of plausible range", v)
		return 0
	}
	return int(v)
}

func (d *ckptDec) f64() float64     { return math.Float64frombits(d.u64()) }
func (d *ckptDec) c128() complex128 { return complex(d.f64(), d.f64()) }

// sliceLen reads a length prefix and bounds it by the bytes that remain
// (elemSize bytes per element), so corrupted prefixes cannot drive huge
// allocations.
func (d *ckptDec) sliceLen(elemSize int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if max := uint64(len(d.b)-d.off) / uint64(elemSize); n > max {
		d.fail("slice length %d exceeds the %d elements the remaining bytes can hold", n, max)
		return 0
	}
	return int(n)
}

func (d *ckptDec) f64s() []float64 {
	n := d.sliceLen(8)
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *ckptDec) c128s() []complex128 {
	n := d.sliceLen(16)
	if d.err != nil {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = d.c128()
	}
	return out
}

// finish asserts the payload was consumed exactly.
func (d *ckptDec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("stream: checkpoint payload: %d trailing bytes after decode", len(d.b)-d.off)
	}
	return nil
}

// ---------------------------------------------------------------------
// The checkpointable processors.

// CovertReceiver is covert.Receiver with checkpoint/restore: the
// receiver's carried state (covert.ReceiverState) in the versioned
// wire format above.
type CovertReceiver struct{ *covert.Receiver }

// NewCovertReceiver returns a checkpointable covert.NewReceiver.
func NewCovertReceiver(cfg covert.RXConfig, sampleRate, centerFreqHz float64) (*CovertReceiver, error) {
	rx, err := covert.NewReceiver(cfg, sampleRate, centerFreqHz)
	if err != nil {
		return nil, err
	}
	return &CovertReceiver{rx}, nil
}

// Consumed returns the number of IQ samples pushed so far.
func (c *CovertReceiver) Consumed() int { return c.State().Samples }

// EncodeState serializes the receiver's carried state: the Welch
// accumulator and its carried tail, the resonator bank's complex state,
// and every decimated trace with its partial block.
func (c *CovertReceiver) EncodeState() []byte {
	s := c.State()
	var e ckptEnc
	e.i64(s.Samples)
	e.c128s(s.Tail)
	e.f64s(s.PSDSum)
	e.c128s(s.Z)
	e.u64(uint64(len(s.Traces)))
	for _, tr := range s.Traces {
		e.f64(tr.Sum)
		e.f64s(tr.Y)
	}
	return sealCheckpoint(ckptKindCovert, e.b)
}

// RestoreState loads a checkpoint produced by EncodeState into a fresh
// receiver constructed with the same config and tuning; the receiver
// checks the decoded state against its own geometry.
func (c *CovertReceiver) RestoreState(data []byte) error {
	payload, err := openCheckpoint(ckptKindCovert, data)
	if err != nil {
		return err
	}
	d := &ckptDec{b: payload}
	var s covert.ReceiverState
	s.Samples = d.i64()
	s.Tail = d.c128s()
	s.PSDSum = d.f64s()
	s.Z = d.c128s()
	n := d.sliceLen(8 + 8) // lower bound: sum+len per trace
	for i := 0; i < n && d.err == nil; i++ {
		var tr covert.TraceState
		tr.Sum = d.f64()
		tr.Y = d.f64s()
		s.Traces = append(s.Traces, tr)
	}
	if err := d.finish(); err != nil {
		return err
	}
	return c.Restore(s)
}

// KeylogDetector is keylog.Detector with checkpoint/restore: the
// detector's carried state (keylog.DetectorState) in the versioned wire
// format above.
type KeylogDetector struct{ *keylog.Detector }

// NewKeylogDetector returns a checkpointable keylog.NewDetector.
func NewKeylogDetector(cfg keylog.DetectorConfig, sampleRate, centerFreqHz float64) (*KeylogDetector, error) {
	kd, err := keylog.NewDetector(cfg, sampleRate, centerFreqHz)
	if err != nil {
		return nil, err
	}
	return &KeylogDetector{kd}, nil
}

// Consumed returns the number of IQ samples pushed so far.
func (k *KeylogDetector) Consumed() int { return k.State().Samples }

// EncodeState serializes the detector's carried state: the partial STFT
// frame, the current block's magnitude rows, the band trace, and the
// spike tracker's center bin.
func (k *KeylogDetector) EncodeState() []byte {
	s := k.State()
	var e ckptEnc
	e.i64(s.Samples)
	e.i64(s.Center)
	e.c128s(s.Frame)
	e.u64(uint64(len(s.Rows)))
	for _, row := range s.Rows {
		e.f64s(row)
	}
	e.f64s(s.Band)
	return sealCheckpoint(ckptKindKeylog, e.b)
}

// RestoreState loads a checkpoint produced by EncodeState into a fresh
// detector constructed with the same config and tuning; the detector
// checks the decoded state against its own geometry.
func (k *KeylogDetector) RestoreState(data []byte) error {
	payload, err := openCheckpoint(ckptKindKeylog, data)
	if err != nil {
		return err
	}
	d := &ckptDec{b: payload}
	var s keylog.DetectorState
	s.Samples = d.i64()
	s.Center = d.i64()
	s.Frame = d.c128s()
	n := d.sliceLen(8) // lower bound: one length prefix per row
	for i := 0; i < n && d.err == nil; i++ {
		s.Rows = append(s.Rows, d.f64s())
	}
	s.Band = d.f64s()
	if err := d.finish(); err != nil {
		return err
	}
	return k.Restore(s)
}

// ---------------------------------------------------------------------
// Checkpoint files.

// CheckpointPath returns the file a stream's checkpoints live at inside
// a checkpoint directory. Stream names are used verbatim as file stems,
// so daemon stream names must not contain path separators.
func CheckpointPath(dir, name string) string {
	return filepath.Join(dir, name+".ckpt")
}

// WriteCheckpoint atomically persists a processor's state to
// CheckpointPath(dir, name): the bytes land in a temp file first and
// are renamed into place, so a crash mid-write leaves the previous
// checkpoint intact rather than a torn one.
func WriteCheckpoint(dir, name string, ck Checkpointer) error {
	data := ck.EncodeState()
	path := CheckpointPath(dir, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		ckptErrors.Inc()
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		ckptErrors.Inc()
		os.Remove(tmp)
		return err
	}
	ckptWrites.Inc()
	ckptBytes.Add(uint64(len(data)))
	return nil
}

// RestoreCheckpoint loads CheckpointPath(dir, name) into a freshly
// constructed processor. The error distinguishes a missing file
// (os.IsNotExist) from a corrupt or mismatched one.
func RestoreCheckpoint(dir, name string, ck Checkpointer) error {
	data, err := os.ReadFile(CheckpointPath(dir, name))
	if err != nil {
		return err
	}
	return ck.RestoreState(data)
}
