// Package sweep is the experiment orchestration layer: it expresses an
// experiment as a grid of independent cells and executes the cells
// across a bounded worker pool, collecting results in cell order.
//
// A cell is one self-contained measurement — typically "build a seeded
// core.Testbed, run it, return the metrics". Cells must not share
// mutable state: each derives everything it needs from its index. Under
// that contract the grid's result is identical for every worker count,
// because cell i's value never depends on when (or on which goroutine)
// it was computed, and the reduction over the returned slice happens in
// index order on the caller's goroutine. Determinism is load-bearing
// here (see the internal/sim doc comment): the harness asserts that
// `-jobs 1` and `-jobs N` render byte-identical reports.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pmuleak/internal/telemetry"
)

// Orchestrator telemetry. Grid and cell counts are deterministic for a
// fixed workload at every jobs setting; cell durations are wall-clock.
// sweep.workers.active is the instantaneous occupancy (workers
// currently executing cells) and the sweep.cell histogram's sum_ns is
// the total busy time, so mean occupancy over a run is
// sum_ns / (wall time × worker count).
var (
	sweepGrids   = telemetry.NewCounter("sweep.grids")
	sweepCells   = telemetry.NewCounter("sweep.cells")
	sweepActive  = telemetry.NewGauge("sweep.workers.active")
	sweepCellDur = telemetry.NewHistogram("sweep.cell")
)

// defaultJobs is the process-wide worker count of Map. Zero means
// runtime.NumCPU(). Stored atomically so the harness can set it while
// experiments run on other goroutines (mirrors
// dsp.SetDefaultParallelism).
var defaultJobs atomic.Int32

// SetDefaultJobs sets the worker count Map fans out over: j == 0
// restores the default (all CPUs), j == 1 runs the cells in a serial
// loop on the caller, and j > 1 pins a specific worker count. Negative
// values are treated as 0.
func SetDefaultJobs(j int) {
	if j < 0 {
		j = 0
	}
	defaultJobs.Store(int32(j))
}

// DefaultJobs reports the current process-wide default (0 = all CPUs).
func DefaultJobs() int { return int(defaultJobs.Load()) }

// workers resolves the process setting to a concrete worker count.
func workers() int {
	if j := DefaultJobs(); j > 0 {
		return j
	}
	return runtime.NumCPU()
}

// Map runs cell(0) … cell(n-1) across the process worker pool
// (SetDefaultJobs) and returns the results in cell order regardless of
// completion order. With one worker the cells run sequentially on the
// calling goroutine in index order; otherwise workers claim one cell at
// a time, so the sweep.cell span covers one cell.
//
// A panic inside a cell is re-raised on the calling goroutine once the
// pool has drained, so a broken model fails the same way it would have
// failed in a serial loop.
func Map[T any](n int, cell func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	sweepGrids.Inc()
	sweepCells.Add(uint64(n))
	out := make([]T, n)
	w := min(workers(), n)
	if w == 1 {
		sweepActive.Add(1)
		defer sweepActive.Add(-1)
		for i := range out {
			sp := sweepCellDur.Start()
			out[i] = cell(i)
			sp.End()
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value // first cell panic, re-raised on the caller
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweepActive.Add(1)
			defer sweepActive.Add(-1)
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sp := sweepCellDur.Start()
				out[i] = cell(i)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r.(*any))
	}
	return out
}
