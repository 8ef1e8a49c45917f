package ecc

import (
	"bytes"
	"testing"
	"testing/quick"

	"pmuleak/internal/xrand"
)

func TestHammingRoundTripAllBlocks(t *testing.T) {
	var h Hamming74
	for v := 0; v < 16; v++ {
		d := [4]byte{byte(v) & 1, byte(v>>1) & 1, byte(v>>2) & 1, byte(v>>3) & 1}
		cw := h.EncodeBlock(d)
		got, corrected := h.DecodeBlock(cw)
		if corrected {
			t.Errorf("clean codeword %v reported corrected", cw)
		}
		if got != d {
			t.Errorf("round trip failed for %v: got %v", d, got)
		}
	}
}

func TestHammingCorrectsEverySingleBitError(t *testing.T) {
	var h Hamming74
	for v := 0; v < 16; v++ {
		d := [4]byte{byte(v) & 1, byte(v>>1) & 1, byte(v>>2) & 1, byte(v>>3) & 1}
		cw := h.EncodeBlock(d)
		for pos := 0; pos < 7; pos++ {
			corrupted := cw
			corrupted[pos] ^= 1
			got, corrected := h.DecodeBlock(corrupted)
			if !corrected {
				t.Fatalf("block %v pos %d: correction not reported", d, pos)
			}
			if got != d {
				t.Fatalf("block %v pos %d: decoded %v", d, pos, got)
			}
		}
	}
}

func TestHammingMinimumDistanceThree(t *testing.T) {
	var h Hamming74
	words := make([][7]byte, 0, 16)
	for v := 0; v < 16; v++ {
		d := [4]byte{byte(v) & 1, byte(v>>1) & 1, byte(v>>2) & 1, byte(v>>3) & 1}
		words = append(words, h.EncodeBlock(d))
	}
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			dist := 0
			for k := 0; k < 7; k++ {
				if words[i][k] != words[j][k] {
					dist++
				}
			}
			if dist < 3 {
				t.Fatalf("codewords %d and %d at distance %d", i, j, dist)
			}
		}
	}
}

func TestHammingEncodeNonBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Hamming74{}.EncodeBlock([4]byte{2, 0, 0, 0})
}

func TestHammingStreamRoundTrip(t *testing.T) {
	var h Hamming74
	rng := xrand.New(1)
	for _, n := range []int{0, 1, 4, 7, 100, 1001} {
		bits := rng.Bits(n)
		enc := h.Encode(bits)
		if want := (n + 3) / 4 * 7; len(enc) != want {
			t.Fatalf("n=%d: encoded length %d, want %d", n, len(enc), want)
		}
		dec, corrections := h.Decode(enc)
		if corrections != 0 {
			t.Fatalf("n=%d: spurious corrections %d", n, corrections)
		}
		// Decode returns padded length; the prefix must match.
		if !bytes.Equal(dec[:n], bits) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestHammingStreamCorrectsScatteredErrors(t *testing.T) {
	var h Hamming74
	rng := xrand.New(2)
	bits := rng.Bits(400)
	enc := h.Encode(bits)
	// One error in each of 20 different blocks.
	for b := 0; b < 20; b++ {
		pos := b*7 + rng.Intn(7)
		enc[pos] ^= 1
	}
	dec, corrections := h.Decode(enc)
	if corrections != 20 {
		t.Fatalf("corrections = %d, want 20", corrections)
	}
	if !bytes.Equal(dec[:400], bits) {
		t.Fatal("errors not corrected")
	}
}

func TestEvenParityRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	bits := rng.Bits(64)
	enc := EvenParity(bits, 8)
	if len(enc) != 72 {
		t.Fatalf("encoded length = %d", len(enc))
	}
	data, failures := CheckEvenParity(enc, 8)
	if failures != 0 {
		t.Fatalf("failures = %d", failures)
	}
	if !bytes.Equal(data, bits) {
		t.Fatal("data mismatch")
	}
}

func TestEvenParityDetectsSingleError(t *testing.T) {
	rng := xrand.New(4)
	bits := rng.Bits(64)
	enc := EvenParity(bits, 8)
	enc[20] ^= 1
	_, failures := CheckEvenParity(enc, 8)
	if failures != 1 {
		t.Fatalf("failures = %d, want 1", failures)
	}
}

func TestEvenParityPartialBlock(t *testing.T) {
	bits := []byte{1, 0, 1}
	enc := EvenParity(bits, 8)
	if len(enc) != 4 {
		t.Fatalf("encoded = %v", enc)
	}
	if enc[3] != 0 { // parity of 1^0^1
		t.Fatalf("parity bit = %d", enc[3])
	}
	data, failures := CheckEvenParity(enc, 8)
	if failures != 0 || !bytes.Equal(data, bits) {
		t.Fatalf("partial block round trip failed: %v %d", data, failures)
	}
}

func TestParityBadBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	EvenParity(nil, 0)
}

func TestBytesBitsRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(p)), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesToBitsMSBFirst(t *testing.T) {
	bits := BytesToBits([]byte{0xA5})
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Fatalf("bits = %v", bits)
	}
}

func TestBitsToBytesPadsRight(t *testing.T) {
	got := BitsToBytes([]byte{1, 1})
	if len(got) != 1 || got[0] != 0xC0 {
		t.Fatalf("got %x", got)
	}
}

func TestHammingPropertyRandomSingleErrors(t *testing.T) {
	var h Hamming74
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		bits := rng.Bits(4 + rng.Intn(200))
		enc := h.Encode(bits)
		// Corrupt at most one bit per block.
		for b := 0; b+7 <= len(enc); b += 7 {
			if rng.Bool(0.5) {
				enc[b+rng.Intn(7)] ^= 1
			}
		}
		dec, _ := h.Decode(enc)
		return bytes.Equal(dec[:len(bits)], bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC8KnownValue(t *testing.T) {
	// CRC-8/ATM check value for "123456789" is 0xF4.
	if got := CRC8([]byte("123456789")); got != 0xF4 {
		t.Fatalf("CRC8 = %#x, want 0xF4", got)
	}
	if CRC8(nil) != 0 {
		t.Fatal("CRC8(nil) != 0")
	}
}

func TestCRC8DetectsDamage(t *testing.T) {
	rng := xrand.New(50)
	msg := make([]byte, 32)
	rng.Bytes(msg)
	crc := CRC8(msg)
	misses := 0
	for i := 0; i < 32*8; i++ {
		damaged := append([]byte(nil), msg...)
		damaged[i/8] ^= 1 << uint(i%8)
		if CRC8(damaged) == crc {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d single-bit errors undetected", misses)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	rng := xrand.New(60)
	for _, n := range []int{0, 1, 7, 64, 100} {
		for _, depth := range []int{1, 2, 7, 16} {
			bits := rng.Bits(n)
			inter := Interleave(bits, depth)
			got := Deinterleave(inter, depth, n)
			if !bytes.Equal(got, bits) {
				t.Fatalf("n=%d depth=%d round trip failed", n, depth)
			}
		}
	}
}

func TestInterleaveSpreadsBursts(t *testing.T) {
	// A burst of `depth` consecutive errors must land in distinct
	// pre-interleave positions at least `cols` apart.
	rng := xrand.New(61)
	const n, depth = 140, 7
	bits := rng.Bits(n)
	inter := Interleave(bits, depth)
	// Corrupt a burst in the interleaved domain.
	burstStart := 20
	for i := burstStart; i < burstStart+depth; i++ {
		inter[i] ^= 1
	}
	got := Deinterleave(inter, depth, n)
	var errorPositions []int
	for i := range bits {
		if got[i] != bits[i] {
			errorPositions = append(errorPositions, i)
		}
	}
	if len(errorPositions) != depth {
		t.Fatalf("burst spread to %d errors, want %d", len(errorPositions), depth)
	}
	// A burst that straddles a column boundary yields spacings of
	// cols-1 in the worst case; that still puts each error in its own
	// 7-bit codeword for any cols >= 8.
	cols := (n + depth - 1) / depth
	for i := 1; i < len(errorPositions); i++ {
		if gap := errorPositions[i] - errorPositions[i-1]; gap < cols-1 {
			t.Fatalf("errors only %d apart after deinterleave (cols %d)", gap, cols)
		}
	}
}

func TestInterleavedHammingSurvivesBurst(t *testing.T) {
	// The payoff: Hamming(7,4) alone dies on a 7-bit burst; with a
	// depth-7 interleaver the same burst is fully corrected.
	var h Hamming74
	rng := xrand.New(62)
	data := rng.Bits(112) // 28 codewords
	coded := h.Encode(data)

	burst := func(bits []byte) []byte {
		out := append([]byte(nil), bits...)
		for i := 50; i < 57; i++ { // 7-bit burst
			out[i] ^= 1
		}
		return out
	}

	// Without interleaving: the burst hits one codeword with 7 errors
	// (and possibly a neighbour), beyond correction.
	plain, _ := h.Decode(burst(coded))
	plainErrs := 0
	for i := range data {
		if plain[i] != data[i] {
			plainErrs++
		}
	}
	if plainErrs == 0 {
		t.Fatal("burst should defeat bare Hamming")
	}

	// With depth-7 interleaving the burst lands one error per codeword.
	inter := Interleave(coded, 7)
	recovered, _ := h.Decode(Deinterleave(burst(inter), 7, len(coded)))
	for i := range data {
		if recovered[i] != data[i] {
			t.Fatalf("interleaved Hamming failed at bit %d", i)
		}
	}
}
