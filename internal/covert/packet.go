package covert

import (
	"fmt"

	"pmuleak/internal/ecc"
)

// This file implements a small reliable framing layer on top of the raw
// bit channel. The paper transmits raw parity-coded streams ("the data
// can be sent in packets or continuously", §IV-C1); packetization is
// what a real exfiltration tool needs, because block codes cannot
// survive bit insertions or deletions — one slipped bit desynchronizes
// everything after it. Splitting the payload into small self-delimiting
// packets, each with its own sequence number and CRC, confines a timing
// slip to one packet, and the receiver can reassemble from however many
// packets survive (plus retransmissions).
//
// Packet layout (before Hamming coding):
//
//	4 bits  sequence number (mod 16)
//	4 bits  payload length in bytes (1..15)
//	n*8     payload bytes
//	8 bits  CRC-8 over sequence|length|payload
//
// Each packet is Hamming(7,4)-coded and prepended with the standard
// preamble, so every packet is independently synchronizable.

// MaxPacketPayload is the largest payload one packet can carry.
const MaxPacketPayload = 15

// Packet is one protocol frame.
type Packet struct {
	Seq     int
	Payload []byte
}

// PacketBody serializes one packet into its wire bytes (header,
// payload, CRC) — the unit that gets bit-expanded, coded, and framed:
// EncodeFrame(ecc.BytesToBits(PacketBody(p)), cfg) is the packet's TX
// bit stream, and Demodulate + RecoverPayloadN + ParsePacket receive it.
func PacketBody(p Packet) []byte {
	if len(p.Payload) == 0 || len(p.Payload) > MaxPacketPayload {
		panic(fmt.Sprintf("covert: packet payload %d out of 1..%d",
			len(p.Payload), MaxPacketPayload))
	}
	header := []byte{byte(p.Seq&0x0F)<<4 | byte(len(p.Payload)&0x0F)}
	body := append(header, p.Payload...)
	return append(body, ecc.CRC8(body))
}

// Packetize splits data into packets of at most MaxPacketPayload bytes.
func Packetize(data []byte) []Packet {
	var out []Packet
	for i, seq := 0, 0; i < len(data); seq++ {
		end := i + MaxPacketPayload
		if end > len(data) {
			end = len(data)
		}
		out = append(out, Packet{Seq: seq & 0x0F, Payload: data[i:end]})
		i = end
	}
	return out
}

// ParsePacket validates and decodes the payload bits of one received
// packet (preamble already stripped, Hamming already decoded).
func ParsePacket(bits []byte) (Packet, bool) {
	raw := ecc.BitsToBytes(bits)
	if len(raw) < 3 {
		return Packet{}, false
	}
	seq := int(raw[0] >> 4)
	n := int(raw[0] & 0x0F)
	if n < 1 || n > MaxPacketPayload || len(raw) < 2+n {
		return Packet{}, false
	}
	body := raw[:1+n]
	if ecc.CRC8(body) != raw[1+n] {
		return Packet{}, false
	}
	return Packet{Seq: seq, Payload: append([]byte(nil), raw[1:1+n]...)}, true
}

// Reassembler collects received packets into the original byte stream.
type Reassembler struct {
	packets map[int][]byte // seq -> payload
	highest int
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{packets: map[int][]byte{}, highest: -1}
}

// Add records a received packet. Duplicate sequence numbers keep the
// first copy (retransmissions carry identical payloads).
func (r *Reassembler) Add(p Packet) {
	if _, ok := r.packets[p.Seq]; !ok {
		r.packets[p.Seq] = p.Payload
	}
	if p.Seq > r.highest {
		r.highest = p.Seq
	}
}

// Has reports whether a packet with the given sequence number arrived.
func (r *Reassembler) Has(seq int) bool {
	_, ok := r.packets[seq]
	return ok
}

// Missing lists sequence numbers absent below the highest seen.
func (r *Reassembler) Missing() []int {
	var out []int
	for s := 0; s <= r.highest; s++ {
		if _, ok := r.packets[s]; !ok {
			out = append(out, s)
		}
	}
	return out
}

// Complete reports whether every packet up to the highest is present.
func (r *Reassembler) Complete() bool { return r.highest >= 0 && len(r.Missing()) == 0 }

// Bytes concatenates the payloads in sequence order. Missing packets
// leave gaps, so check Complete first for exact recovery.
func (r *Reassembler) Bytes() []byte {
	var out []byte
	for s := 0; s <= r.highest; s++ {
		out = append(out, r.packets[s]...)
	}
	return out
}
