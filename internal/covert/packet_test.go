package covert

import (
	"bytes"
	"testing"
	"testing/quick"

	"pmuleak/internal/ecc"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

func TestPacketizeSplits(t *testing.T) {
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i)
	}
	pkts := Packetize(data)
	if len(pkts) != 3 { // 15 + 15 + 10
		t.Fatalf("got %d packets", len(pkts))
	}
	if len(pkts[0].Payload) != 15 || len(pkts[2].Payload) != 10 {
		t.Fatalf("payload sizes %d %d %d",
			len(pkts[0].Payload), len(pkts[1].Payload), len(pkts[2].Payload))
	}
	for i, p := range pkts {
		if p.Seq != i&0x0F {
			t.Fatalf("packet %d has seq %d", i, p.Seq)
		}
	}
}

func TestPacketizeEmpty(t *testing.T) {
	if pkts := Packetize(nil); pkts != nil {
		t.Fatalf("packets from empty data: %v", pkts)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	p := Packet{Seq: 5, Payload: []byte("hello!")}
	body := ecc.BytesToBits(PacketBody(p))
	onAir := EncodeFrame(body, cfg)
	// Strip preamble, decode Hamming, parse.
	payloadBits, _ := DecodePayloadN(onAir[len(cfg.Preamble):], cfg, len(body))
	got, ok := ParsePacket(payloadBits)
	if !ok {
		t.Fatal("packet did not parse")
	}
	if got.Seq != 5 || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("got %+v", got)
	}
}

func TestPacketRejectsDamage(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	cfg.Code = CodeNone // direct access to raw bits
	p := Packet{Seq: 1, Payload: []byte("secret")}
	onAir := EncodeFrame(ecc.BytesToBits(PacketBody(p)), cfg)
	bits := append([]byte(nil), onAir[len(cfg.Preamble):]...)
	bits[10] ^= 1 // flip a payload bit
	if _, ok := ParsePacket(bits); ok {
		t.Fatal("damaged packet accepted")
	}
}

func TestPacketRejectsTruncation(t *testing.T) {
	if _, ok := ParsePacket(ecc.BytesToBits([]byte{0x15})); ok {
		t.Fatal("truncated packet accepted")
	}
	if _, ok := ParsePacket(nil); ok {
		t.Fatal("empty packet accepted")
	}
}

func TestPacketBadSizePanics(t *testing.T) {
	for _, payload := range [][]byte{nil, make([]byte, 16)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("payload size %d accepted", len(payload))
				}
			}()
			PacketBody(Packet{Payload: payload})
		}()
	}
}

func TestReassembler(t *testing.T) {
	r := NewReassembler()
	if r.Complete() {
		t.Fatal("empty reassembler complete")
	}
	r.Add(Packet{Seq: 0, Payload: []byte("ab")})
	r.Add(Packet{Seq: 2, Payload: []byte("ef")})
	if r.Complete() {
		t.Fatal("complete with a gap")
	}
	missing := r.Missing()
	if len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("missing = %v", missing)
	}
	r.Add(Packet{Seq: 1, Payload: []byte("cd")})
	if !r.Complete() {
		t.Fatal("not complete after filling the gap")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("Bytes = %q", got)
	}
}

func TestReassemblerKeepsFirstDuplicate(t *testing.T) {
	r := NewReassembler()
	r.Add(Packet{Seq: 0, Payload: []byte("good")})
	r.Add(Packet{Seq: 0, Payload: []byte("bad!")})
	if got := r.Bytes(); !bytes.Equal(got, []byte("good")) {
		t.Fatalf("Bytes = %q", got)
	}
}

func TestPacketPropertyRoundTrip(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(MaxPacketPayload)
		payload := make([]byte, n)
		rng.Bytes(payload)
		p := Packet{Seq: rng.Intn(16), Payload: payload}
		body := ecc.BytesToBits(PacketBody(p))
		onAir := EncodeFrame(body, cfg)
		bits, _ := DecodePayloadN(onAir[len(cfg.Preamble):], cfg, len(body))
		got, ok := ParsePacket(bits)
		return ok && got.Seq == p.Seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketizeReassembleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		data := make([]byte, 1+rng.Intn(300))
		rng.Bytes(data)
		r := NewReassembler()
		for _, p := range Packetize(data) {
			r.Add(p)
		}
		// Sequence numbers wrap at 16; reassembly of more than 16
		// packets needs higher-layer windowing, so restrict to the
		// in-window case.
		if len(data) > MaxPacketPayload*16 {
			return true
		}
		return r.Complete() && bytes.Equal(r.Bytes(), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReassemblerHas(t *testing.T) {
	r := NewReassembler()
	if r.Has(0) {
		t.Fatal("empty reassembler has packet 0")
	}
	r.Add(Packet{Seq: 2, Payload: []byte("x")})
	if !r.Has(2) || r.Has(1) {
		t.Fatal("Has wrong")
	}
}

func TestPacketBodyRoundTrip(t *testing.T) {
	p := Packet{Seq: 7, Payload: []byte("abc")}
	body := PacketBody(p)
	got, ok := ParsePacket(ecc.BytesToBits(body))
	if !ok || got.Seq != 7 || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
}
