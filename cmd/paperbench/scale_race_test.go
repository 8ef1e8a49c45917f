//go:build race

package main

import "pmuleak/internal/experiments"

// goldenScale is the scale the golden tests run at. Under the race
// detector every simulation step costs ~10x and CI may have a single
// vCPU, so the grid is trimmed hard: the point of the -race pass is
// catching unsynchronized access in the orchestrator, not statistical
// fidelity (the !race run covers the full Quick scale).
// Cells is trimmed the same way: the fleet campaign's surrogate loop is
// pure math, but under race every atomic claim and rng step is traced.
var goldenScale = experiments.Scale{PayloadBits: 32, Runs: 1, Words: 6, Cells: 1 << 16}

// goldenEquivalenceJobs under race: one comparison render, on the
// setting that exercises both the worker pool and the concurrent trace
// cache.
var goldenEquivalenceJobs = []int{4}

// telemetryGoldenJobs under race: one telemetry-enabled render at
// jobs 4 races the worker pool, the concurrent trace cache and the
// instrumented fan-out path; the cross-jobs counter-equality assertion
// runs in the !race tier (it needs two).
var telemetryGoldenJobs = []int{4}

// fleetGoldenGrid under race: one fanned-out render against the serial
// baseline — enough to race the campaign's block claiming. The full
// recorded-shards {1,4,16} × jobs {1,4} acceptance grid runs in the
// !race tier.
var fleetGoldenGrid = []struct{ shards, jobs int }{
	{16, 4},
}
