//go:build !race

package main

import "pmuleak/internal/experiments"

// goldenScale is the scale the golden tests run at. Without the race
// detector the full Quick scale is tractable.
var goldenScale = experiments.Quick

// goldenEquivalenceJobs is the -jobs grid TestGoldenEquivalence
// compares against the serial baseline.
var goldenEquivalenceJobs = []int{1, 4}

// telemetryGoldenJobs is the -jobs grid for the telemetry golden test;
// two settings so the deterministic counter series can be compared
// across serial and fanned-out runs.
var telemetryGoldenJobs = []int{1, 4}

// fleetGoldenGrid is the shard×worker grid the fleet campaign's
// byte-identity is proven over (the acceptance grid).
var fleetGoldenGrid = []struct{ shards, jobs int }{
	{1, 4}, {4, 1}, {4, 4}, {16, 1}, {16, 4},
}
