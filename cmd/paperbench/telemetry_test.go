package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/dsp"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
)

// deterministicCounters are the telemetry series whose values depend
// only on the experiment configuration, never on scheduling: call
// counts of pipeline stages. Deliberately absent: pool
// allocations/discards (sync.Pool is GC-coupled), the dsp.fftplan
// hit/miss split (the plan cache outlives renders), and the
// core.tracecache hit/miss split (the LRU eviction victim depends on
// concurrent access order once the working set exceeds the cache
// capacity) — for the last two, the hit+miss totals ARE deterministic
// and are asserted separately below.
var deterministicCounters = []string{
	"campaign.blocks",
	"campaign.cells",
	"campaign.runs",
	"core.covert.bit_errors",
	"core.covert.runs",
	"core.covert.tx_bits",
	"core.keylog.matched_keys",
	"core.keylog.runs",
	"core.keylog.truth_keys",
	"dsp.engine.stft.frames",
	"dsp.engine.welch.segments",
	"dsp.iqpool.gets",
	"dsp.iqpool.puts",
	"emchannel.applies",
	"emchannel.samples",
	"sdr.captures",
	"sdr.samples",
	"sdr.samples_clipped",
	"sweep.cells",
	"sweep.grids",
}

// TestTelemetryGolden carries TestGoldenEquivalence's contract through
// execute with telemetry fully enabled (-stats and -metrics): every
// experiment renderer must produce byte-identical output whether cells
// run serially or fanned out across the worker pool, and with telemetry
// on or silent. Each render in the
// build-tagged -jobs grid (jobs 4 under -race, at a trimmed scale —
// see scale_race_test.go) must equal the telemetry-silent jobs-1
// baseline. Every render starts from an empty transmitter-trace cache,
// so the fanned-out renders also race the cache's concurrent replays.
// It also validates the -metrics snapshot itself: the JSON parses,
// carries the trace-cache / FFT-plan-cache / IQ-pool / stage-span
// series, and its deterministic counters agree across -jobs.
func TestTelemetryGolden(t *testing.T) {
	t.Cleanup(func() {
		sweep.SetDefaultJobs(0)
		core.ResetTraceCache()
		dsp.SetDefaultParallelism(0)
		telemetry.Reset()
	})

	baseline := goldenBaseline(t)
	snaps := map[int]telemetry.Snapshot{}
	for _, jobs := range telemetryGoldenJobs {
		// Reset the accumulated state so each render's snapshot reflects
		// exactly one harness pass and the cross-jobs comparison is fair.
		core.ResetTraceCache()
		telemetry.Reset()

		mpath := filepath.Join(t.TempDir(), "metrics.json")
		cfg := benchConfig{
			Scale:   goldenScale,
			Seed:    2020,
			Jobs:    jobs,
			Stats:   true,
			Metrics: mpath,
		}
		var out, errs bytes.Buffer
		if code := execute(cfg, &out, &errs); code != 0 {
			t.Fatalf("jobs=%d: execute returned %d, stderr:\n%s", jobs, code, errs.String())
		}
		if !bytes.Equal(out.Bytes(), baseline) {
			t.Fatalf("jobs=%d: stdout differs from telemetry-silent baseline\n"+
				"baseline %d bytes, got %d bytes\nfirst divergence: %s",
				jobs, len(baseline), len(out.Bytes()), firstDiff(baseline, out.Bytes()))
		}
		if errs.Len() == 0 {
			t.Fatalf("jobs=%d: -stats produced no stderr output", jobs)
		}
		snaps[jobs] = readSnapshot(t, mpath)
	}

	for jobs, snap := range snaps {
		checkSnapshotSeries(t, jobs, snap)
	}

	// Simulation-derived counters must not depend on the worker count.
	if len(telemetryGoldenJobs) >= 2 {
		ref := telemetryGoldenJobs[0]
		for _, jobs := range telemetryGoldenJobs[1:] {
			for _, name := range deterministicCounters {
				if got, want := snaps[jobs].Counters[name], snaps[ref].Counters[name]; got != want {
					t.Errorf("counter %s: jobs=%d got %d, jobs=%d got %d — should be scheduling-independent",
						name, jobs, got, ref, want)
				}
			}
			// The fftplan and tracecache hit/miss splits are
			// scheduling- or history-dependent, but each cache's total
			// lookup count is not.
			for _, prefix := range []string{"dsp.fftplan", "core.tracecache"} {
				refCalls := snaps[ref].Counters[prefix+".hits"] + snaps[ref].Counters[prefix+".misses"]
				calls := snaps[jobs].Counters[prefix+".hits"] + snaps[jobs].Counters[prefix+".misses"]
				if calls != refCalls {
					t.Errorf("%s hits+misses: jobs=%d got %d, jobs=%d got %d",
						prefix, jobs, calls, ref, refCalls)
				}
			}
		}
	}
}

// readSnapshot re-parses the -metrics file the way a consumer would.
func readSnapshot(t *testing.T, path string) telemetry.Snapshot {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading -metrics file: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics file is not valid JSON: %v", err)
	}
	return snap
}

// checkSnapshotSeries asserts the snapshot carries the series the
// acceptance criteria name: trace cache, FFT-plan cache, IQ pool, and
// the per-stage spans — all with non-trivial values after a full
// harness pass.
func checkSnapshotSeries(t *testing.T, jobs int, snap telemetry.Snapshot) {
	t.Helper()
	positiveCounters := []string{
		"campaign.cells",
		"core.covert.runs",
		"core.covert.tx_bits",
		"core.keylog.runs",
		"core.keylog.truth_keys",
		"core.tracecache.hits",
		"core.tracecache.misses",
		"dsp.fftplan.hits",
		"dsp.iqpool.gets",
		"dsp.iqpool.puts",
		"dsp.engine.stft.frames",
		"emchannel.samples",
		"sdr.captures",
		"sdr.samples",
		"sweep.cells",
		"sweep.grids",
	}
	for _, name := range positiveCounters {
		if snap.Counters[name] == 0 {
			t.Errorf("jobs=%d: counter %s is zero after a full render", jobs, name)
		}
	}
	positiveHistograms := []string{
		"campaign.block",
		"stage.simulate",
		"stage.emit",
		"stage.emchannel",
		"stage.sdr",
		"stage.demod",
		"stage.detect",
		"sweep.cell",
		"dsp.engine.stft",
		"experiment.table2",
	}
	for _, name := range positiveHistograms {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("jobs=%d: histogram %s missing or empty after a full render", jobs, name)
			continue
		}
		var bucketSum uint64
		for _, b := range h.Buckets {
			bucketSum += b.Count
		}
		if bucketSum != h.Count {
			t.Errorf("jobs=%d: histogram %s bucket counts sum to %d, want %d",
				jobs, name, bucketSum, h.Count)
		}
	}
	if _, ok := snap.Gauges["core.tracecache.entries"]; !ok {
		t.Errorf("jobs=%d: gauge core.tracecache.entries missing from snapshot", jobs)
	}
}
