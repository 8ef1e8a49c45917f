package core

import (
	"reflect"
	"testing"

	"pmuleak/internal/emchannel"
	"pmuleak/internal/sdr"
)

// freshTraceCache empties the trace cache now and again when the test
// ends.
func freshTraceCache(t *testing.T) {
	t.Helper()
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)
}

// receiverVariants returns testbeds that share a transmitter
// configuration (same profile, seed, sample rate) but differ in every
// receiver-side knob the cache claims not to care about: distance,
// antenna, wall, noise floor, interferers.
func receiverVariants(seed int64) []*Testbed {
	return []*Testbed{
		NewTestbed(WithSeed(seed)),
		NewTestbed(WithSeed(seed), WithDistance(1.5), WithAntenna(sdr.LoopLA390)),
		NewTestbed(WithSeed(seed), WithDistance(1.0), WithWall(15), WithAntenna(sdr.LoopLA390)),
		NewTestbed(WithSeed(seed), WithNoise(0.02)),
		NewTestbed(WithSeed(seed),
			WithInterference(emchannel.OfficePrinter(0.002), emchannel.Refrigerator(0.0015))),
	}
}

// TestTraceCacheEquivalence is the load-bearing soundness check for the
// transmitter-trace memoization: for testbeds that differ only in
// channel/receiver configuration, a cached (replayed) transmitter trace
// must produce byte-for-byte the measurements and demod decisions a
// freshly simulated one produces. The fresh reference empties the cache
// before every run, so each run misses and simulates. RXHarmonics is
// varied too — it is receiver-side and must also replay.
func TestTraceCacheEquivalence(t *testing.T) {
	const seed = 71
	cfgs := []CovertConfig{
		{PayloadBits: 64},
		{PayloadBits: 64, RXHarmonics: 1},
	}
	type outcome struct {
		meas interface{}
		bits []byte
		rate float64
	}
	capture := func(fresh bool) []outcome {
		var out []outcome
		for _, tb := range receiverVariants(seed) {
			for _, cfg := range cfgs {
				if fresh {
					ResetTraceCache()
				}
				res := tb.RunCovert(cfg)
				if hits, misses := TraceCacheStats(); fresh && (hits != 0 || misses != 1) {
					t.Fatalf("fresh run: hits=%d misses=%d, want one miss", hits, misses)
				}
				out = append(out, outcome{
					meas: res.Measurement,
					bits: append([]byte(nil), res.Demod.Bits...),
					rate: res.TransmitRate,
				})
			}
		}
		return out
	}

	freshTraceCache(t)
	fresh := capture(true)
	ResetTraceCache()
	cold := capture(false) // populates the cache
	warm := capture(false) // replays every transmitter trace
	hits, misses := TraceCacheStats()
	if misses == 0 || hits == 0 {
		t.Fatalf("cache did not engage: hits=%d misses=%d", hits, misses)
	}
	// Both cfgs differ only in RXHarmonics (receiver-side), and all
	// testbeds differ only in channel config, so every run shares a
	// single transmitter key: exactly one simulation total.
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (all runs share one tx config)", misses)
	}

	if !reflect.DeepEqual(cold, fresh) {
		t.Fatalf("cache-populating pass differs from the fresh pass")
	}
	if !reflect.DeepEqual(warm, fresh) {
		t.Fatalf("cache-replay pass differs from the fresh pass")
	}
}

// TestTraceCacheKeysTxSide: transmitter-side config changes must MISS —
// a hit here would replay the wrong pulse train.
func TestTraceCacheKeysTxSide(t *testing.T) {
	tb := NewTestbed(WithSeed(9))
	freshTraceCache(t)
	tb.RunCovert(CovertConfig{PayloadBits: 48})
	tb.RunCovert(CovertConfig{PayloadBits: 48, Background: true})
	tb.RunCovert(CovertConfig{PayloadBits: 48, Interleave: 4})
	tb.RunCovert(CovertConfig{PayloadBits: 96})
	// Profile mutations must miss too. laptop.Profile's Stringer prints
	// only the model name, so a naive %+v key would collide here and
	// replay an undefended pulse train against the §VI defenses.
	pcOff := NewTestbed(WithSeed(9))
	pcOff.Profile.Power.PStatesEnabled = false
	pcOff.Profile.Power.CStatesEnabled = false
	pcOff.RunCovert(CovertConfig{PayloadBits: 48})
	dither := NewTestbed(WithSeed(9))
	dither.Profile.VRMDitherHz = 60e3
	dither.RunCovert(CovertConfig{PayloadBits: 48})
	hits, misses := TraceCacheStats()
	if hits != 0 {
		t.Errorf("tx-side variations hit the cache: hits=%d", hits)
	}
	if misses != 6 {
		t.Errorf("misses = %d, want 6", misses)
	}
}

// TestTraceCacheEviction: the LRU stays bounded and keeps working past
// capacity.
func TestTraceCacheEviction(t *testing.T) {
	tb := NewTestbed(WithSeed(3))
	freshTraceCache(t)
	for bits := 8; bits <= 8*(traceCap+3); bits += 8 {
		tb.RunCovert(CovertConfig{PayloadBits: bits})
	}
	traceMu.Lock()
	n := len(traceEntries)
	traceMu.Unlock()
	if n > traceCap {
		t.Fatalf("cache grew to %d entries, cap %d", n, traceCap)
	}
	// An evicted key re-simulates and still yields a usable result.
	res := tb.RunCovert(CovertConfig{PayloadBits: 8})
	if res == nil || len(res.Payload) == 0 {
		t.Fatalf("post-eviction run broken")
	}
}
