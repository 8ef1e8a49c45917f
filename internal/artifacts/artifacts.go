// Package artifacts gives paperbench runs a durable trail: each
// invocation with -artifacts writes one timestamped run directory
// holding the per-experiment CSV, the full telemetry snapshot, the
// byte-exact stdout report, and an environment manifest — the
// reproducible paper-runner workflow (experiments grid, repeats,
// timestamped run dirs, CSV outputs, validate-only replay) that turns
// "the perf/BER trajectory lives in a hand-edited JSON" into recorded
// measurements. cmd/emreport reads these directories back.
//
// Run-directory layout:
//
//	<root>/<UTC timestamp>/
//	    manifest.json      environment + flags + stdout SHA-256
//	    experiments.csv    one row per experiment: wall, cache traffic
//	    metrics.json       the telemetry snapshot (Snapshot.WriteJSON)
//	    report.txt         the stdout report, byte-identical to the run's
//
// Nothing here touches stdout: artifacts are written from already-
// captured bytes, so a run's report is byte-identical with artifacts
// on or off (pinned by TestArtifactsGoldenStdout).
package artifacts

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"pmuleak/internal/telemetry"
)

// SchemaVersion stamps manifests so future readers can tell what they
// are looking at.
const SchemaVersion = 1

// Manifest records where, how, and from what a run was produced —
// enough to replay it (-validate) and to interpret its numbers next to
// runs from other machines.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedUTC    string `json:"created_utc"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	// GitRevision comes from the binary's embedded VCS stamp
	// (debug.ReadBuildInfo); empty when the build carries none (go test,
	// dirty toolchains).
	GitRevision string `json:"git_revision,omitempty"`
	GitModified bool   `json:"git_modified,omitempty"`
	// Flags is the full knob set of the run, stringly typed so the
	// schema never chases the flag surface. The replay path
	// (paperbench -validate) reconstructs its configuration from this.
	Flags map[string]string `json:"flags"`
	// WallSeconds is the whole-harness wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// StdoutSHA256 is the hex digest of the run's stdout report — the
	// replay target: a validate run re-executes the recorded flags and
	// must reproduce this digest bit for bit.
	StdoutSHA256 string `json:"stdout_sha256"`
}

// NewManifest fills the environment half of a manifest.
func NewManifest(now time.Time) Manifest {
	m := Manifest{
		SchemaVersion: SchemaVersion,
		CreatedUTC:    now.UTC().Format(time.RFC3339Nano),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Flags:         map[string]string{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitModified = s.Value == "true"
			}
		}
	}
	return m
}

// Row is one experiment's line of experiments.csv.
type Row struct {
	Experiment string
	// WallMS is the experiment's wall time in milliseconds.
	WallMS float64
	// CacheHits/CacheMisses are the transmitter-trace cache deltas over
	// the experiment.
	CacheHits   uint64
	CacheMisses uint64
}

// csvHeader is the experiments.csv column set, in order.
var csvHeader = []string{"experiment", "wall_ms", "trace_cache_hits", "trace_cache_misses"}

// Filenames inside a run directory.
const (
	ManifestFile = "manifest.json"
	CSVFile      = "experiments.csv"
	MetricsFile  = "metrics.json"
	ReportFile   = "report.txt"
)

// WriteRun creates a timestamped directory under root and writes the
// four artifact files. It returns the created directory. Concurrent
// writers under one root are safe: the nanosecond timestamp plus an
// os.Mkdir claim (with -N suffixes on collision) makes the directory
// name unique.
func WriteRun(root string, now time.Time, m Manifest, rows []Row, snap telemetry.Snapshot, report []byte) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	base := now.UTC().Format("20060102T150405.000000000Z")
	dir := filepath.Join(root, base)
	for n := 1; ; n++ {
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			break
		}
		if !os.IsExist(err) || n > 100 {
			return "", err
		}
		dir = filepath.Join(root, fmt.Sprintf("%s-%d", base, n))
	}

	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), append(mb, '\n'), 0o644); err != nil {
		return "", err
	}

	cf, err := os.Create(filepath.Join(dir, CSVFile))
	if err != nil {
		return "", err
	}
	cw := csv.NewWriter(cf)
	if err := cw.Write(csvHeader); err != nil {
		cf.Close()
		return "", err
	}
	for _, r := range rows {
		rec := []string{
			r.Experiment,
			strconv.FormatFloat(r.WallMS, 'f', 3, 64),
			strconv.FormatUint(r.CacheHits, 10),
			strconv.FormatUint(r.CacheMisses, 10),
		}
		if err := cw.Write(rec); err != nil {
			cf.Close()
			return "", err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		cf.Close()
		return "", err
	}
	if err := cf.Close(); err != nil {
		return "", err
	}

	mf, err := os.Create(filepath.Join(dir, MetricsFile))
	if err != nil {
		return "", err
	}
	if err := snap.WriteJSON(mf); err != nil {
		mf.Close()
		return "", err
	}
	if err := mf.Close(); err != nil {
		return "", err
	}

	if err := os.WriteFile(filepath.Join(dir, ReportFile), report, 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// Run is one loaded run directory.
type Run struct {
	Dir      string
	Manifest Manifest
	Rows     []Row
	Snapshot telemetry.Snapshot
}

// ReadManifest loads a manifest from a path that may be the
// manifest.json itself or a run directory containing one.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	st, err := os.Stat(path)
	if err != nil {
		return m, err
	}
	if st.IsDir() {
		path = filepath.Join(path, ManifestFile)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// LoadRun reads one run directory back.
func LoadRun(dir string) (*Run, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	cf, err := os.Open(filepath.Join(dir, CSVFile))
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	records, err := csv.NewReader(cf).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", filepath.Join(dir, CSVFile), err)
	}
	if len(records) == 0 || len(records[0]) != len(csvHeader) {
		return nil, fmt.Errorf("%s: missing or malformed header", filepath.Join(dir, CSVFile))
	}
	rows := make([]Row, 0, len(records)-1)
	for _, rec := range records[1:] {
		wall, err1 := strconv.ParseFloat(rec[1], 64)
		hits, err2 := strconv.ParseUint(rec[2], 10, 64)
		misses, err3 := strconv.ParseUint(rec[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%s: bad row %v", filepath.Join(dir, CSVFile), rec)
		}
		rows = append(rows, Row{Experiment: rec[0], WallMS: wall, CacheHits: hits, CacheMisses: misses})
	}
	var snap telemetry.Snapshot
	raw, err := os.ReadFile(filepath.Join(dir, MetricsFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", filepath.Join(dir, MetricsFile), err)
	}
	return &Run{Dir: dir, Manifest: m, Rows: rows, Snapshot: snap}, nil
}

// DiscoverRuns resolves a path argument to run directories: the path
// itself when it holds a manifest, otherwise every immediate child that
// does. Results come back sorted (timestamped names sort
// chronologically), so multi-run analyses are order-deterministic.
func DiscoverRuns(path string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(path, ManifestFile)); err == nil {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		child := filepath.Join(path, e.Name())
		if _, err := os.Stat(filepath.Join(child, ManifestFile)); err == nil {
			dirs = append(dirs, child)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s: no run directories (no %s found)", path, ManifestFile)
	}
	sort.Strings(dirs)
	return dirs, nil
}
