package artifacts

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmuleak/internal/telemetry"
)

// fakeSnapshot builds a snapshot carrying the scoring counters
// cmd/emreport reads.
func fakeSnapshot(bits, errs, truth, matched uint64) telemetry.Snapshot {
	r := telemetry.NewRegistry()
	r.Counter("core.covert.tx_bits").Add(bits)
	r.Counter("core.covert.bit_errors").Add(errs)
	r.Counter("core.keylog.truth_keys").Add(truth)
	r.Counter("core.keylog.matched_keys").Add(matched)
	r.Histogram("stage.demod").Observe(3 * time.Millisecond)
	return r.Snapshot()
}

func writeFakeRun(t *testing.T, root string, now time.Time, wall1, wall2 float64) string {
	t.Helper()
	m := NewManifest(now)
	m.Flags["seed"] = "2020"
	m.WallSeconds = (wall1 + wall2) / 1000
	m.StdoutSHA256 = strings.Repeat("ab", 32)
	rows := []Row{
		{Experiment: "table2", WallMS: wall1, CacheHits: 10, CacheMisses: 2},
		{Experiment: "fleet", WallMS: wall2, CacheHits: 0, CacheMisses: 1},
	}
	dir, err := WriteRun(root, now, m, rows, fakeSnapshot(1000, 3, 200, 180), []byte("report body\n"))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	return dir
}

// TestWriteLoadRoundTrip pins the artifact schema: what WriteRun
// persists, LoadRun reads back unchanged.
func TestWriteLoadRoundTrip(t *testing.T) {
	root := t.TempDir()
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	dir := writeFakeRun(t, root, now, 1500, 300)

	if filepath.Dir(dir) != root {
		t.Fatalf("run dir %s not under root %s", dir, root)
	}
	for _, f := range []string{ManifestFile, CSVFile, MetricsFile, ReportFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}

	run, err := LoadRun(dir)
	if err != nil {
		t.Fatalf("LoadRun: %v", err)
	}
	if run.Manifest.SchemaVersion != SchemaVersion || run.Manifest.GoVersion == "" ||
		run.Manifest.NumCPU < 1 || run.Manifest.Flags["seed"] != "2020" {
		t.Fatalf("manifest round trip lost fields: %+v", run.Manifest)
	}
	if run.Manifest.CreatedUTC != now.Format(time.RFC3339Nano) {
		t.Fatalf("created = %s, want %s", run.Manifest.CreatedUTC, now.Format(time.RFC3339Nano))
	}
	if len(run.Rows) != 2 || run.Rows[0].Experiment != "table2" ||
		run.Rows[0].WallMS != 1500 || run.Rows[0].CacheHits != 10 {
		t.Fatalf("rows round trip: %+v", run.Rows)
	}
	if run.Snapshot.Counters["core.covert.tx_bits"] != 1000 {
		t.Fatalf("snapshot round trip: %v", run.Snapshot.Counters)
	}
	if run.Snapshot.Histograms["stage.demod"].Count != 1 {
		t.Fatalf("snapshot histograms lost: %v", run.Snapshot.Histograms)
	}

	report, err := os.ReadFile(filepath.Join(dir, ReportFile))
	if err != nil || string(report) != "report body\n" {
		t.Fatalf("report round trip: %q, %v", report, err)
	}
}

// TestWriteRunCollision: two runs with the same timestamp land in
// distinct directories.
func TestWriteRunCollision(t *testing.T) {
	root := t.TempDir()
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	a := writeFakeRun(t, root, now, 100, 100)
	b := writeFakeRun(t, root, now, 100, 100)
	if a == b {
		t.Fatalf("same directory handed out twice: %s", a)
	}
	dirs, err := DiscoverRuns(root)
	if err != nil || len(dirs) != 2 {
		t.Fatalf("DiscoverRuns = %v, %v; want both runs", dirs, err)
	}
}

// TestDiscoverRuns resolves both a run dir itself and a root of runs,
// and rejects a directory holding neither.
func TestDiscoverRuns(t *testing.T) {
	root := t.TempDir()
	dir := writeFakeRun(t, root, time.Now(), 10, 20)

	direct, err := DiscoverRuns(dir)
	if err != nil || len(direct) != 1 || direct[0] != dir {
		t.Fatalf("direct discovery = %v, %v", direct, err)
	}
	viaRoot, err := DiscoverRuns(root)
	if err != nil || len(viaRoot) != 1 || viaRoot[0] != dir {
		t.Fatalf("root discovery = %v, %v", viaRoot, err)
	}
	if _, err := DiscoverRuns(t.TempDir()); err == nil {
		t.Fatal("discovery in an empty dir did not fail")
	}
}
