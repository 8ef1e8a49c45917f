// Package ecc implements the simple error-correcting codes the paper's
// transmitter uses: a Hamming(7,4) code whose minimum distance of three
// corrects one bit error per codeword ("we use a very simple (parity)
// code, which keeps our transmitter application simple enough to
// manually implement on a target machine in a few minutes"), plus a
// plain even-parity check for detection-only framing.
//
// Bits are represented as byte slices of 0/1 values throughout, matching
// the rest of the pipeline.
package ecc

import "fmt"

// Hamming74 is the classic (7,4) Hamming code: 4 data bits, 3 parity
// bits, minimum distance 3.
type Hamming74 struct{}

// codeword layout: positions 1..7 (1-indexed), parity at powers of two.
//
//	p1 p2 d1 p3 d2 d3 d4
//
// p1 covers positions {1,3,5,7}, p2 {2,3,6,7}, p3 {4,5,6,7}.

// EncodeBlock encodes 4 data bits into a 7-bit codeword.
func (Hamming74) EncodeBlock(d [4]byte) [7]byte {
	for _, b := range d {
		if b > 1 {
			panic(fmt.Sprintf("ecc: non-bit value %d", b))
		}
	}
	var c [7]byte
	c[2], c[4], c[5], c[6] = d[0], d[1], d[2], d[3]
	c[0] = c[2] ^ c[4] ^ c[6]
	c[1] = c[2] ^ c[5] ^ c[6]
	c[3] = c[4] ^ c[5] ^ c[6]
	return c
}

// DecodeBlock decodes a 7-bit codeword, correcting up to one bit error.
// corrected reports whether a correction was applied.
func (Hamming74) DecodeBlock(c [7]byte) (d [4]byte, corrected bool) {
	s1 := c[0] ^ c[2] ^ c[4] ^ c[6]
	s2 := c[1] ^ c[2] ^ c[5] ^ c[6]
	s3 := c[3] ^ c[4] ^ c[5] ^ c[6]
	syndrome := int(s1) | int(s2)<<1 | int(s3)<<2
	if syndrome != 0 {
		c[syndrome-1] ^= 1
		corrected = true
	}
	d[0], d[1], d[2], d[3] = c[2], c[4], c[5], c[6]
	return d, corrected
}

// Encode encodes a bit stream, padding the final block with zeros.
// Output length is 7*ceil(len(bits)/4).
func (h Hamming74) Encode(bits []byte) []byte {
	out := make([]byte, 0, (len(bits)+3)/4*7)
	for i := 0; i < len(bits); i += 4 {
		var block [4]byte
		copy(block[:], bits[i:min(i+4, len(bits))])
		cw := h.EncodeBlock(block)
		out = append(out, cw[:]...)
	}
	return out
}

// Decode decodes a bit stream of whole codewords, correcting single-bit
// errors per block. It returns the data bits and the number of blocks
// that needed correction. A trailing partial block is dropped.
func (h Hamming74) Decode(bits []byte) (data []byte, corrections int) {
	data = make([]byte, 0, len(bits)/7*4)
	for i := 0; i+7 <= len(bits); i += 7 {
		var cw [7]byte
		copy(cw[:], bits[i:i+7])
		d, corrected := h.DecodeBlock(cw)
		if corrected {
			corrections++
		}
		data = append(data, d[:]...)
	}
	return data, corrections
}

// EvenParity appends an even-parity bit to every block of blockSize data
// bits (padding the last block with zeros before the parity bit).
func EvenParity(bits []byte, blockSize int) []byte {
	if blockSize <= 0 {
		panic("ecc: blockSize must be positive")
	}
	out := make([]byte, 0, len(bits)+len(bits)/blockSize+1)
	var parity byte
	n := 0
	for _, b := range bits {
		out = append(out, b)
		parity ^= b
		n++
		if n == blockSize {
			out = append(out, parity)
			parity, n = 0, 0
		}
	}
	if n > 0 {
		out = append(out, parity)
	}
	return out
}

// CheckEvenParity strips the parity bits inserted by EvenParity and
// reports how many blocks failed the check. Failed blocks are still
// returned (detection only, no correction).
func CheckEvenParity(bits []byte, blockSize int) (data []byte, failures int) {
	if blockSize <= 0 {
		panic("ecc: blockSize must be positive")
	}
	stride := blockSize + 1
	for i := 0; i < len(bits); i += stride {
		end := min(i+stride, len(bits))
		block := bits[i:end]
		if len(block) < 2 {
			break
		}
		var parity byte
		for _, b := range block[:len(block)-1] {
			parity ^= b
		}
		if parity != block[len(block)-1] {
			failures++
		}
		data = append(data, block[:len(block)-1]...)
	}
	return data, failures
}

// BytesToBits expands a byte slice into its bits, MSB first.
func BytesToBits(p []byte) []byte {
	out := make([]byte, 0, len(p)*8)
	for _, b := range p {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}

// BitsToBytes packs bits (MSB first) into bytes; a trailing partial byte
// is zero-padded on the right.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, 0, (len(bits)+7)/8)
	for i := 0; i < len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b <<= 1
			if i+j < len(bits) && bits[i+j] == 1 {
				b |= 1
			}
		}
		out = append(out, b)
	}
	return out
}

// CRC8 computes the CRC-8/ATM checksum (polynomial x^8+x^2+x+1, 0x07)
// of p. Exfiltration protocols append it so the receiver can tell a
// clean frame from one damaged by a bit insertion or deletion, which
// the Hamming code alone cannot detect.
func CRC8(p []byte) byte {
	var crc byte
	for _, b := range p {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Interleave reorders bits into a depth-row block interleaver: bits are
// written row by row and read column by column, so a burst of up to
// depth consecutive channel errors lands in depth DIFFERENT codewords —
// each within the Hamming code's single-error budget. The output is
// padded to a whole block with zeros; record the original length for
// Deinterleave.
func Interleave(bits []byte, depth int) []byte {
	if depth <= 1 {
		return append([]byte(nil), bits...)
	}
	cols := (len(bits) + depth - 1) / depth
	out := make([]byte, 0, cols*depth)
	for c := 0; c < cols; c++ {
		for r := 0; r < depth; r++ {
			idx := r*cols + c
			if idx < len(bits) {
				out = append(out, bits[idx])
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// Deinterleave inverts Interleave, returning the first n bits of the
// original order.
func Deinterleave(bits []byte, depth, n int) []byte {
	if depth <= 1 {
		if n > len(bits) {
			n = len(bits)
		}
		return append([]byte(nil), bits[:n]...)
	}
	cols := (len(bits) + depth - 1) / depth
	out := make([]byte, depth*cols)
	for i, b := range bits {
		c := i / depth
		r := i % depth
		out[r*cols+c] = b
	}
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}
