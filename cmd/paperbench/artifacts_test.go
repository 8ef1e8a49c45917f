// The artifacts and validate tests cost one extra full render and three
// renders of one experiment on top of the package's golden baseline;
// under the race detector's ~10x slowdown that strains the CI race
// job's timeout, and the paths they pin (stdout teeing, run-dir
// writing, manifest replay) are sequential I/O with no concurrency of
// their own — the race build keeps the orchestrator-equivalence
// coverage and skips these.
//go:build !race

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmuleak/internal/artifacts"
	"pmuleak/internal/core"
	"pmuleak/internal/sweep"
)

// resetOrchestrator restores the production defaults execute() mutates.
func resetOrchestrator(t *testing.T) {
	t.Cleanup(func() {
		sweep.SetDefaultJobs(0)
		core.ResetTraceCache()
	})
}

// executeArtifacts runs the harness with -artifacts under the golden
// settings (serial, seed 2020, an empty trace cache), restricted to one
// experiment unless only is empty, and returns stdout plus the run
// directory.
func executeArtifacts(t *testing.T, root, only string) ([]byte, string) {
	t.Helper()
	core.ResetTraceCache()
	var out, errs bytes.Buffer
	cfg := benchConfig{Scale: goldenScale, Only: only, Seed: 2020, Jobs: 1, Artifacts: root}
	if code := execute(cfg, &out, &errs); code != 0 {
		t.Fatalf("execute with -artifacts exited %d\nstderr:\n%s", code, errs.String())
	}
	dirs, err := artifacts.DiscoverRuns(root)
	if err != nil || len(dirs) != 1 {
		t.Fatalf("DiscoverRuns after one run = %v, %v", dirs, err)
	}
	return out.Bytes(), dirs[0]
}

// TestArtifactsGoldenStdout pins the -artifacts contract: stdout is
// byte-identical with artifacts on or off, and the persisted report is
// byte-identical to stdout.
func TestArtifactsGoldenStdout(t *testing.T) {
	resetOrchestrator(t)
	baseline := goldenBaseline(t) // artifacts off

	out, dir := executeArtifacts(t, t.TempDir(), "")
	if !bytes.Equal(out, baseline) {
		t.Fatalf("stdout with -artifacts differs from baseline\nfirst divergence: %s",
			firstDiff(baseline, out))
	}

	report, err := os.ReadFile(filepath.Join(dir, artifacts.ReportFile))
	if err != nil {
		t.Fatalf("reading %s: %v", artifacts.ReportFile, err)
	}
	if !bytes.Equal(report, baseline) {
		t.Fatalf("persisted report differs from stdout\nfirst divergence: %s",
			firstDiff(baseline, report))
	}

	run, err := artifacts.LoadRun(dir)
	if err != nil {
		t.Fatalf("LoadRun: %v", err)
	}
	if len(run.Rows) != len(registry()) {
		t.Fatalf("experiments.csv has %d rows, want one per experiment (%d)",
			len(run.Rows), len(registry()))
	}
	for i, s := range registry() {
		if run.Rows[i].Experiment != s.Name {
			t.Fatalf("row %d is %q, want %q (registry order)", i, run.Rows[i].Experiment, s.Name)
		}
	}
	sum := sha256.Sum256(baseline)
	if run.Manifest.StdoutSHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("manifest digest %s does not match stdout", run.Manifest.StdoutSHA256)
	}
	if run.Manifest.Flags["seed"] != "2020" || run.Manifest.Flags["jobs"] != "1" {
		t.Fatalf("manifest flags incomplete: %v", run.Manifest.Flags)
	}
	if run.Snapshot.Counters["core.covert.tx_bits"] == 0 {
		t.Fatalf("persisted snapshot missing scoring counters: %v", run.Snapshot.Counters)
	}
}

// TestValidateReplay drives -validate through its three outcomes:
// a faithful manifest replays to exit 0, a tampered seed diverges to
// exit 1, and a manifest without a digest is unusable (exit 2). The run
// is restricted to fig8, one short seed-dependent experiment, so the
// replay honours the recorded -only; CI's report-gate job replays a
// full quick run.
func TestValidateReplay(t *testing.T) {
	resetOrchestrator(t)
	_, dir := executeArtifacts(t, t.TempDir(), "fig8")
	manifestPath := filepath.Join(dir, artifacts.ManifestFile)

	var out, errs bytes.Buffer
	if code := runValidate(manifestPath, &out, &errs); code != 0 {
		t.Fatalf("validate of a faithful manifest exited %d\nstderr:\n%s", code, errs.String())
	}
	if !strings.Contains(out.String(), "validate: OK") {
		t.Fatalf("validate verdict missing from stdout: %q", out.String())
	}

	// Tamper with the recorded seed: the replay must produce a different
	// report and the digest check must catch it.
	m, err := artifacts.ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m.Flags["seed"] = "2021"
	tampered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errs.Reset()
	if code := runValidate(manifestPath, &out, &errs); code != 1 {
		t.Fatalf("validate of a tampered manifest exited %d, want 1\nstderr:\n%s",
			code, errs.String())
	}
	if !strings.Contains(errs.String(), "DIVERGED") {
		t.Fatalf("divergence not reported: %q", errs.String())
	}

	// A manifest without a recorded digest cannot be validated.
	m.StdoutSHA256 = ""
	broken, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, broken, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runValidate(manifestPath, &out, &errs); code != 2 {
		t.Fatalf("validate without a digest exited %d, want 2", code)
	}
}

// TestManifestFlagsRoundTrip pins that every recorded flag reconstructs
// the configuration it came from, including a custom scale. Run
// directories recorded while paperbench still had its -nofused kernel
// switch carry "nofused": "false" or "true", those recorded before the
// trace cache lost its -tracecache and -tracecache-cap flags carry
// "tracecache" and "tracecache_cap", and those recorded before the
// fleet campaign lost its -shards flag carry "shards". Every value of
// those flags gave the same report, so the recorded digests hold for
// the one path left, and the keys must be ignored rather than rejected.
func TestManifestFlagsRoundTrip(t *testing.T) {
	cfg := benchConfig{
		Scale:    goldenScale,
		Only:     "table2",
		Seed:     7,
		Show:     true,
		Parallel: 2,
		Jobs:     3,
		Cells:    1 << 10,
	}
	for _, legacy := range []map[string]string{
		nil,
		{"nofused": "false"},
		{"nofused": "true"},
		{"tracecache": "true", "tracecache_cap": "0"},
		{"tracecache": "false", "tracecache_cap": "0"},
		{"tracecache": "true", "tracecache_cap": "9"},
		{"shards": "1"},
		{"shards": "16"},
	} {
		m := artifacts.Manifest{Flags: manifestFlags(cfg)}
		for k, v := range legacy {
			m.Flags[k] = v
		}
		got, err := configFromManifest(m)
		if err != nil {
			t.Fatalf("legacy keys %v: configFromManifest: %v", legacy, err)
		}
		if got != cfg {
			t.Fatalf("legacy keys %v: round trip mismatch:\n got %+v\nwant %+v", legacy, got, cfg)
		}
	}

	m := artifacts.Manifest{Flags: manifestFlags(cfg)}
	delete(m.Flags, "seed")
	if _, err := configFromManifest(m); err == nil {
		t.Fatal("missing seed flag not rejected")
	}
}
