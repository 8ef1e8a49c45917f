package main

import (
	"bytes"
	"fmt"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
)

// renderFleet runs only the fleet experiment through the binary's
// execute path under the given campaign knobs.
func renderFleet(t *testing.T, shards, jobs int, cells int64) []byte {
	t.Helper()
	core.ResetTraceCache()
	cfg := benchConfig{
		Scale:  goldenScale,
		Only:   "fleet",
		Seed:   2020,
		Jobs:   jobs,
		Shards: shards,
		Cells:  cells,
	}
	var out, errs bytes.Buffer
	if code := execute(cfg, &out, &errs); code != 0 {
		t.Fatalf("shards=%d jobs=%d: execute returned %d, stderr:\n%s",
			shards, jobs, code, errs.String())
	}
	return out.Bytes()
}

// TestFleetShardGolden is the campaign layer's end-to-end acceptance
// criterion: the fleet report on stdout must be byte-identical at every
// shard count × worker count. Only -cells may change the report — it
// selects a different population.
func TestFleetShardGolden(t *testing.T) {
	t.Cleanup(func() {
		sweep.SetDefaultJobs(0)
		core.ResetTraceCache()
		telemetry.Reset()
	})

	baseline := renderFleet(t, 1, 1, 0)
	if len(baseline) == 0 {
		t.Fatal("fleet render is empty")
	}
	for _, grid := range fleetGoldenGrid {
		t.Run(fmt.Sprintf("shards=%d,jobs=%d", grid.shards, grid.jobs), func(t *testing.T) {
			got := renderFleet(t, grid.shards, grid.jobs, 0)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("fleet report differs from shards=1/jobs=1 baseline\nfirst divergence: %s",
					firstDiff(baseline, got))
			}
		})
	}

	// -cells IS part of the report's identity: a different population
	// must produce a different (but valid) report. Guards against the
	// flag being silently dropped on the way to the campaign.
	t.Run("cells-override", func(t *testing.T) {
		got := renderFleet(t, 4, 4, goldenScale.Cells/2)
		if bytes.Equal(got, baseline) {
			t.Fatal("-cells override did not change the fleet report")
		}
		if !bytes.Contains(got, []byte(fmt.Sprintf("population: %d cells", goldenScale.Cells/2))) {
			t.Fatalf("fleet report does not state the overridden population:\n%s", got)
		}
	})
}
