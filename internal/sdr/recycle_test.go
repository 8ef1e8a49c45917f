package sdr

import (
	"sync"
	"testing"

	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

func TestRecycleIdempotent(t *testing.T) {
	recycles := telemetry.NewCounter("sdr.captures_recycled")
	iq := make([]complex128, 1024)
	cap := Acquire(iq, 970e3, DefaultConfig(), xrand.New(1))

	before := recycles.Load()
	cap.Recycle()
	if cap.IQ != nil {
		t.Fatal("Recycle did not clear IQ")
	}
	if got := recycles.Load() - before; got != 1 {
		t.Fatalf("first Recycle counted %d times", got)
	}
	// Second call: strict no-op — no second PutIQ, no counter bump.
	cap.Recycle()
	if got := recycles.Load() - before; got != 1 {
		t.Fatalf("double Recycle counted %d times, want 1", got)
	}
}

// TestRecycleConcurrentMisuse models the demod-then-recycle misuse where
// two owners both believe they should release the capture: the buffer
// must be recycled exactly once regardless of interleaving. Run with
// -race this also proves the latch is the only synchronization needed.
func TestRecycleConcurrentMisuse(t *testing.T) {
	recycles := telemetry.NewCounter("sdr.captures_recycled")
	for round := 0; round < 50; round++ {
		iq := make([]complex128, 256)
		cap := Acquire(iq, 970e3, DefaultConfig(), xrand.New(int64(round)))
		before := recycles.Load()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cap.Recycle()
			}()
		}
		wg.Wait()
		if got := recycles.Load() - before; got != 1 {
			t.Fatalf("round %d: %d recycles for 4 concurrent calls, want 1", round, got)
		}
	}
}

func TestNewFrontendReturnsError(t *testing.T) {
	bad := DefaultConfig()
	bad.Bits = 0
	if _, err := NewFrontend(bad, xrand.New(1)); err == nil {
		t.Fatal("NewFrontend accepted invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire did not panic on invalid config")
		}
	}()
	Acquire(make([]complex128, 16), 970e3, bad, xrand.New(1))
}
