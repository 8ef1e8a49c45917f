package workload

import (
	"testing"

	"pmuleak/internal/kernel"
	"pmuleak/internal/sim"
)

func quietKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{OS: kernel.Linux, TimerGranularity: sim.Microsecond}, 1)
}

func TestMicrobenchAlternates(t *testing.T) {
	k := quietKernel()
	defer k.Close()
	Microbench(k, 2*sim.Millisecond, 2*sim.Millisecond, 5)
	k.Run(30 * sim.Millisecond)
	spans := k.Activity(20 * sim.Millisecond)
	if len(spans) != 5 {
		t.Fatalf("got %d active spans, want 5", len(spans))
	}
	f := k.BusyFraction(20 * sim.Millisecond)
	if f < 0.4 || f > 0.6 {
		t.Fatalf("busy fraction = %v, want ~0.5", f)
	}
}

func TestMicrobenchBadParamsPanic(t *testing.T) {
	k := quietKernel()
	defer k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Microbench(k, 0, sim.Millisecond, 1)
}

func TestBurstyProducesBursts(t *testing.T) {
	k := quietKernel()
	defer k.Close()
	Bursty(k, DefaultBursty(), 7)
	k.Run(5 * sim.Second)
	spans := k.Activity(5 * sim.Second)
	if len(spans) < 15 {
		t.Fatalf("only %d bursts in 5s", len(spans))
	}
	cfg := DefaultBursty()
	for _, s := range spans {
		if s.Duration() > cfg.BurstMax+sim.Millisecond {
			t.Fatalf("burst of %v exceeds max %v", s.Duration(), cfg.BurstMax)
		}
	}
	// Mostly idle overall.
	if f := k.BusyFraction(5 * sim.Second); f > 0.4 {
		t.Fatalf("bursty workload too heavy: %v", f)
	}
}

func TestBurstyBadParamsPanic(t *testing.T) {
	k := quietKernel()
	defer k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Bursty(k, BurstyConfig{BurstMin: 2, BurstMax: 1, GapMean: 1}, 1)
}
