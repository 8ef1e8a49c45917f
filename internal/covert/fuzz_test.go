package covert

import (
	"bytes"
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/ecc"
	"pmuleak/internal/sim"
)

// Native fuzz targets. `go test` runs the seed corpus; `go test -fuzz`
// explores further. The invariants are absence of panics and internal
// consistency on arbitrary input.

func FuzzParsePacket(f *testing.F) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	good := EncodeFrame(ecc.BytesToBits(PacketBody(Packet{Seq: 3, Payload: []byte("hello")})), cfg)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1})
	f.Add(bytes.Repeat([]byte{1}, 200))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Map arbitrary bytes onto a bit stream.
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		p, ok := ParsePacket(bits)
		if !ok {
			return
		}
		if p.Seq < 0 || p.Seq > 15 {
			t.Fatalf("parsed seq %d out of range", p.Seq)
		}
		if len(p.Payload) < 1 || len(p.Payload) > MaxPacketPayload {
			t.Fatalf("parsed payload length %d out of range", len(p.Payload))
		}
		// Anything that parses must re-serialize to a frame that
		// parses back identically (CRC consistency).
		body := ecc.BytesToBits(PacketBody(p))
		onAir := EncodeFrame(body, cfg)
		decoded, _ := DecodePayloadN(onAir[len(cfg.Preamble):], cfg, len(body))
		p2, ok2 := ParsePacket(decoded)
		if !ok2 || p2.Seq != p.Seq || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatalf("re-serialization broke the packet: %+v vs %+v", p, p2)
		}
	})
}

func FuzzFindPreamble(f *testing.F) {
	pre := DefaultPreamble()
	f.Add([]byte{1, 0, 1, 0}, 2)
	f.Add(append(append([]byte{0, 0}, pre...), 1, 1), 3)
	f.Fuzz(func(t *testing.T, raw []byte, tol int) {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		if tol < 0 {
			tol = -tol
		}
		tol %= 8
		start, ok := FindPreamble(bits, pre, tol)
		if !ok {
			return
		}
		if start < len(pre) || start > len(bits) {
			t.Fatalf("payload start %d out of bounds (len %d)", start, len(bits))
		}
	})
}

// FuzzFindPreambleUnderDamage injects the channel damage of the Fig. 8
// regimes — bit deletions and insertions — into a well-formed frame and
// checks FindPreamble's contract survives: no panic, in-bounds result,
// and guaranteed sync whenever an intact copy of the preamble is still
// present (damage landed past it). The seed corpus mirrors Fig. 8:
// the quiet regime (no deletions; DP < 0.2%) and the loaded regime
// (~1 deletion per 122 on-air bits).
func FuzzFindPreambleUnderDamage(f *testing.F) {
	pre := DefaultPreamble()
	f.Add([]byte{1, 1, 0, 1, 0, 0, 1, 0}, uint16(0), uint16(0), false, false)       // quiet: intact
	f.Add(bytes.Repeat([]byte{1, 0, 1, 1}, 30), uint16(61), uint16(0), true, false) // loaded: one deletion
	f.Add(bytes.Repeat([]byte{0, 1}, 61), uint16(40), uint16(90), true, true)       // deletion + insertion
	f.Add(bytes.Repeat([]byte{1}, 122), uint16(3), uint16(5), true, true)           // damage inside the preamble
	f.Fuzz(func(t *testing.T, rawPayload []byte, delPos, insPos uint16, doDel, doIns bool) {
		payload := make([]byte, len(rawPayload))
		for i, b := range rawPayload {
			payload[i] = b & 1
		}
		bits := append(append([]byte(nil), pre...), payload...)

		damagedPastPreamble := true
		if doDel && len(bits) > 0 {
			p := int(delPos) % len(bits)
			bits = append(bits[:p], bits[p+1:]...)
			if p < len(pre) {
				damagedPastPreamble = false
			}
		}
		if doIns {
			p := int(insPos) % (len(bits) + 1)
			bits = append(bits[:p], append([]byte{1}, bits[p:]...)...)
			if p < len(pre) {
				damagedPastPreamble = false
			}
		}

		start, ok := FindPreamble(bits, pre, len(pre)/4)
		if ok && (start < len(pre) || start > len(bits)) {
			t.Fatalf("payload start %d out of bounds (len %d)", start, len(bits))
		}
		if damagedPastPreamble && !ok {
			t.Fatalf("intact preamble not found (del=%v ins=%v, %d bits)", doDel, doIns, len(bits))
		}
	})
}

// FuzzDemodulateParallelism round-trips the full demodulator over a
// simulated capture under two arbitrary DSP worker counts and
// asserts the decoded bits — and the recovered payload — are identical.
// This is the fuzzing arm of the engine's bit-equivalence guarantee:
// whatever worker counts the fuzzer picks, the receiver's output may
// depend only on the capture.
func FuzzDemodulateParallelism(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4))
	f.Add(int64(7), uint8(0), uint8(2))
	f.Add(int64(42), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, p1, p2 uint8) {
		cap, txCfg, sent, prof := buildCapture(24, seed)
		cfg := DefaultRXConfig()
		cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
		cfg.MinBitPeriod = txCfg.BitPeriod() / 2
		t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
		run := func(p uint8) (*Demod, []byte, bool) {
			dsp.SetDefaultParallelism(int(p % 9)) // 0 (auto) through 8 workers
			d := Demodulate(cap, cfg)
			payload, _, ok := d.RecoverPayloadN(txCfg, len(sent))
			return d, payload, ok
		}
		d1, pay1, ok1 := run(p1)
		d2, pay2, ok2 := run(p2)
		if len(d1.Bits) != len(d2.Bits) {
			t.Fatalf("bit counts differ: %d vs %d (P=%d vs P=%d)",
				len(d1.Bits), len(d2.Bits), p1%9, p2%9)
		}
		for i := range d1.Bits {
			if d1.Bits[i] != d2.Bits[i] {
				t.Fatalf("bit %d differs between P=%d and P=%d", i, p1%9, p2%9)
			}
		}
		if ok1 != ok2 || len(pay1) != len(pay2) {
			t.Fatalf("payload recovery diverged: ok %v/%v len %d/%d",
				ok1, ok2, len(pay1), len(pay2))
		}
		for i := range pay1 {
			if pay1[i] != pay2[i] {
				t.Fatalf("payload bit %d differs", i)
			}
		}
	})
}

func FuzzDecodePayload(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1}, 0, uint16(4))
	f.Add([]byte{}, 1, uint16(9))
	f.Add(bytes.Repeat([]byte{1, 0}, 50), 2, uint16(56))
	f.Fuzz(func(t *testing.T, raw []byte, codeSel int, size uint16) {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		cfg := DefaultTXConfig(100 * sim.Microsecond)
		switch codeSel % 3 {
		case 0:
			cfg.Code = CodeNone
		case 1:
			cfg.Code = CodeParity
		default:
			cfg.Code = CodeHamming74
		}
		payloadBits := int(size)
		payload, corrections := DecodePayloadN(bits, cfg, payloadBits)
		if corrections < 0 {
			t.Fatal("negative corrections")
		}
		if len(payload) != payloadBits {
			t.Fatalf("decoded %d payload bits, want %d", len(payload), payloadBits)
		}
		for _, b := range payload {
			if b > 1 {
				t.Fatalf("non-bit %d in decoded payload", b)
			}
		}
		_ = ecc.BitsToBytes(payload) // must not panic either
	})
}
