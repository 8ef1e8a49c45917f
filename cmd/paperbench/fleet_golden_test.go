package main

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"pmuleak/internal/artifacts"
	"pmuleak/internal/core"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
)

// fleetConfig is the fleet-only run the golden test renders.
func fleetConfig(jobs int, cells int64) benchConfig {
	return benchConfig{
		Scale: goldenScale,
		Only:  "fleet",
		Seed:  2020,
		Jobs:  jobs,
		Cells: cells,
	}
}

// renderFleet runs cfg through the binary's execute path.
func renderFleet(t *testing.T, cfg benchConfig) []byte {
	t.Helper()
	core.ResetTraceCache()
	var out, errs bytes.Buffer
	if code := execute(cfg, &out, &errs); code != 0 {
		t.Fatalf("jobs=%d: execute returned %d, stderr:\n%s", cfg.Jobs, code, errs.String())
	}
	return out.Bytes()
}

// TestFleetShardGolden is the campaign layer's end-to-end acceptance
// criterion: the fleet report on stdout must be byte-identical at every
// shard count × worker count. The shard count survives only as the
// "shards" key of run directories recorded before -shards was retired,
// so each grid point replays such a manifest (configFromManifest, the
// -validate path) at its -jobs. Only -cells may change the report — it
// selects a different population.
func TestFleetShardGolden(t *testing.T) {
	t.Cleanup(func() {
		sweep.SetDefaultJobs(0)
		core.ResetTraceCache()
		telemetry.Reset()
	})

	baseline := renderFleet(t, fleetConfig(1, 0))
	if len(baseline) == 0 {
		t.Fatal("fleet render is empty")
	}
	for _, grid := range fleetGoldenGrid {
		t.Run(fmt.Sprintf("shards=%d,jobs=%d", grid.shards, grid.jobs), func(t *testing.T) {
			m := artifacts.Manifest{Flags: manifestFlags(fleetConfig(grid.jobs, 0))}
			m.Flags["shards"] = strconv.Itoa(grid.shards)
			cfg, err := configFromManifest(m)
			if err != nil {
				t.Fatalf("configFromManifest: %v", err)
			}
			got := renderFleet(t, cfg)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("fleet report differs from the jobs=1 baseline\nfirst divergence: %s",
					firstDiff(baseline, got))
			}
		})
	}

	// -cells IS part of the report's identity: a different population
	// must produce a different (but valid) report. Guards against the
	// flag being silently dropped on the way to the campaign.
	t.Run("cells-override", func(t *testing.T) {
		got := renderFleet(t, fleetConfig(4, goldenScale.Cells/2))
		if bytes.Equal(got, baseline) {
			t.Fatal("-cells override did not change the fleet report")
		}
		if !bytes.Contains(got, []byte(fmt.Sprintf("population: %d cells", goldenScale.Cells/2))) {
			t.Fatalf("fleet report does not state the overridden population:\n%s", got)
		}
	})
}
