package sweep

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// The TestMapJobs* tests hold Map's contract at each SetDefaultJobs
// setting they name.

// setJobs sets the process worker count for the rest of t and restores
// the default (0, all CPUs) when t ends.
func setJobs(t *testing.T, jobs int) {
	t.Helper()
	SetDefaultJobs(jobs)
	t.Cleanup(func() { SetDefaultJobs(0) })
}

// TestMapJobsOrder checks results land at their own index for every
// worker count, including pools larger than the grid.
func TestMapJobsOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 3, 4, 17} {
		setJobs(t, jobs)
		got := Map(10, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: cell %d = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// TestMapJobsSerialEquivalence: the parallel grid must reproduce the
// serial grid exactly — the bit-identical contract the experiment
// runners rely on.
func TestMapJobsSerialEquivalence(t *testing.T) {
	cell := func(i int) float64 {
		v := float64(i) * 1.7
		for k := 0; k < 100; k++ {
			v = v*0.999 + float64(k%7)*1e-3
		}
		return v
	}
	setJobs(t, 1)
	serial := Map(64, cell)
	for _, jobs := range []int{2, 4, 8} {
		setJobs(t, jobs)
		par := Map(64, cell)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("jobs=%d: cell %d differs: %v != %v", jobs, i, par[i], serial[i])
			}
		}
	}
}

// TestMapJobsEveryCellOnce: each index is visited exactly once even
// under contention.
func TestMapJobsEveryCellOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int32
	setJobs(t, 8)
	Map(n, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestMapJobsEmpty: n <= 0 yields nil without spawning workers.
func TestMapJobsEmpty(t *testing.T) {
	setJobs(t, 4)
	if got := Map(0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	if got := Map(-3, func(i int) int { return i }); got != nil {
		t.Fatalf("n<0: got %v, want nil", got)
	}
}

// TestMapJobsPanicPropagation: a cell panic surfaces on the caller, as
// it would in a serial loop.
func TestMapJobsPanicPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		setJobs(t, jobs)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("jobs=%d: expected panic to propagate", jobs)
				}
				if s, ok := r.(string); !ok || s != "broken model" {
					t.Fatalf("jobs=%d: panic value = %v, want %q", jobs, r, "broken model")
				}
			}()
			Map(8, func(i int) int {
				if i == 5 {
					panic("broken model")
				}
				return i
			})
		}()
	}
}

// TestDefaultJobs: the process knob round-trips and negative clamps to
// zero (mirrors dsp.SetDefaultParallelism).
func TestDefaultJobs(t *testing.T) {
	setJobs(t, 3)
	if got := DefaultJobs(); got != 3 {
		t.Fatalf("DefaultJobs = %d, want 3", got)
	}
	if w := workers(); w != 3 {
		t.Fatalf("setting 3 resolved to %d workers", w)
	}
	SetDefaultJobs(-5)
	if got := DefaultJobs(); got != 0 {
		t.Fatalf("negative set: DefaultJobs = %d, want 0", got)
	}
	if w := workers(); w != runtime.NumCPU() {
		t.Fatalf("auto resolved to %d workers, want %d", w, runtime.NumCPU())
	}
}
