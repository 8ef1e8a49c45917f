package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strconv"
	"time"

	"pmuleak/internal/artifacts"
	"pmuleak/internal/experiments"
	"pmuleak/internal/telemetry"
)

// artifactRun accumulates everything -artifacts persists while the
// harness runs: the stdout bytes (teed, so real stdout is untouched),
// their digest, and the per-experiment rows.
type artifactRun struct {
	hash   hash.Hash
	report bytes.Buffer
	rows   []artifacts.Row
	start  time.Time
}

func newArtifactRun() *artifactRun {
	return &artifactRun{hash: sha256.New(), start: time.Now()}
}

// tee returns the writer the experiment renderers should use: the real
// stdout plus the digest and the report copy.
func (a *artifactRun) tee(stdout io.Writer) io.Writer {
	return io.MultiWriter(stdout, a.hash, &a.report)
}

func (a *artifactRun) addRow(name string, wall time.Duration, hits, misses uint64) {
	a.rows = append(a.rows, artifacts.Row{
		Experiment:  name,
		WallMS:      float64(wall) / float64(time.Millisecond),
		CacheHits:   hits,
		CacheMisses: misses,
	})
}

// write persists the run directory and returns its path.
func (a *artifactRun) write(cfg benchConfig, snap telemetry.Snapshot) (string, error) {
	now := time.Now()
	m := artifacts.NewManifest(now)
	m.Flags = manifestFlags(cfg)
	m.WallSeconds = now.Sub(a.start).Seconds()
	m.StdoutSHA256 = hex.EncodeToString(a.hash.Sum(nil))
	return artifacts.WriteRun(cfg.Artifacts, now, m, a.rows, snap, a.report.Bytes())
}

// manifestFlags flattens the run configuration into the manifest's
// stringly-typed flag map. Every knob that exists is recorded — the
// report-identity ones (scale, only, seed, spectrograms, cells) because
// -validate replays them, the execution-only ones (parallel, jobs,
// shards) because a regression hunt needs to know how the timed run was
// shaped.
func manifestFlags(cfg benchConfig) map[string]string {
	return map[string]string{
		"scale.payload_bits": strconv.Itoa(cfg.Scale.PayloadBits),
		"scale.runs":         strconv.Itoa(cfg.Scale.Runs),
		"scale.words":        strconv.Itoa(cfg.Scale.Words),
		"scale.cells":        strconv.FormatInt(cfg.Scale.Cells, 10),
		"only":               cfg.Only,
		"seed":               strconv.FormatInt(cfg.Seed, 10),
		"spectrograms":       strconv.FormatBool(cfg.Show),
		"parallel":           strconv.Itoa(cfg.Parallel),
		"jobs":               strconv.Itoa(cfg.Jobs),
		"cells":              strconv.FormatInt(cfg.Cells, 10),
		"shards":             strconv.Itoa(cfg.Shards),
	}
}

// configFromManifest reconstructs a replayable benchConfig from
// recorded flags. Observational outputs (stats, metrics, profiles,
// artifacts) stay off: the replay's only product is the stdout digest.
// Keys of retired execution-only flags in older manifests (nofused,
// tracecache, tracecache_cap) are ignored: every value of them gave the
// same report.
func configFromManifest(m artifacts.Manifest) (benchConfig, error) {
	get := func(key string) (string, error) {
		v, ok := m.Flags[key]
		if !ok {
			return "", fmt.Errorf("manifest flags missing %q", key)
		}
		return v, nil
	}
	atoi := func(key string) (int, error) {
		v, err := get(key)
		if err != nil {
			return 0, err
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("manifest flag %s=%q: %w", key, v, err)
		}
		return n, nil
	}
	atob := func(key string) (bool, error) {
		v, err := get(key)
		if err != nil {
			return false, err
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return false, fmt.Errorf("manifest flag %s=%q: %w", key, v, err)
		}
		return b, nil
	}
	var cfg benchConfig
	var err error
	var scale experiments.Scale
	if scale.PayloadBits, err = atoi("scale.payload_bits"); err != nil {
		return cfg, err
	}
	if scale.Runs, err = atoi("scale.runs"); err != nil {
		return cfg, err
	}
	if scale.Words, err = atoi("scale.words"); err != nil {
		return cfg, err
	}
	cellsStr, err := get("scale.cells")
	if err != nil {
		return cfg, err
	}
	if scale.Cells, err = strconv.ParseInt(cellsStr, 10, 64); err != nil {
		return cfg, fmt.Errorf("manifest flag scale.cells=%q: %w", cellsStr, err)
	}
	cfg.Scale = scale
	if cfg.Only, err = get("only"); err != nil {
		return cfg, err
	}
	seedStr, err := get("seed")
	if err != nil {
		return cfg, err
	}
	if cfg.Seed, err = strconv.ParseInt(seedStr, 10, 64); err != nil {
		return cfg, fmt.Errorf("manifest flag seed=%q: %w", seedStr, err)
	}
	if cfg.Show, err = atob("spectrograms"); err != nil {
		return cfg, err
	}
	if cfg.Parallel, err = atoi("parallel"); err != nil {
		return cfg, err
	}
	if cfg.Jobs, err = atoi("jobs"); err != nil {
		return cfg, err
	}
	runCellsStr, err := get("cells")
	if err != nil {
		return cfg, err
	}
	if cfg.Cells, err = strconv.ParseInt(runCellsStr, 10, 64); err != nil {
		return cfg, fmt.Errorf("manifest flag cells=%q: %w", runCellsStr, err)
	}
	if cfg.Shards, err = atoi("shards"); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// runValidate is the validate-only mode: replay the manifest's recorded
// flags with stdout routed into a digest and compare against the
// recorded one. The report itself is not printed — the digest carries
// the byte-identity claim; the verdict goes to stdout.
func runValidate(path string, stdout, stderr io.Writer) int {
	m, err := artifacts.ReadManifest(path)
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: -validate: %v\n", err)
		return 2
	}
	if m.StdoutSHA256 == "" {
		fmt.Fprintf(stderr, "paperbench: -validate: manifest %s records no stdout digest\n", path)
		return 2
	}
	cfg, err := configFromManifest(m)
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: -validate: %v\n", err)
		return 2
	}
	fmt.Fprintf(stderr, "# validate: replaying %s (seed %s, scale %s/%s/%s/%s bits/runs/words/cells)\n",
		path, m.Flags["seed"], m.Flags["scale.payload_bits"], m.Flags["scale.runs"],
		m.Flags["scale.words"], m.Flags["scale.cells"])
	h := sha256.New()
	if code := execute(cfg, h, stderr); code != 0 {
		fmt.Fprintf(stderr, "paperbench: -validate: replay exited %d\n", code)
		return code
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != m.StdoutSHA256 {
		fmt.Fprintf(stderr, "paperbench: -validate: stdout digest DIVERGED\nrecorded %s\nreplayed %s\n",
			m.StdoutSHA256, got)
		return 1
	}
	fmt.Fprintf(stdout, "validate: OK — replay reproduced stdout digest %s\n", got)
	return 0
}
