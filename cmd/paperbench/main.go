// Command paperbench regenerates every table and figure of the paper's
// evaluation section and prints each measured result next to the value
// the paper reports. Absolute numbers come from a simulation, not the
// authors' testbed; what should match is the shape — who wins, by what
// factor, and where the knees fall.
//
// Usage:
//
//	paperbench              # everything, at full scale
//	paperbench -quick       # CI-sized runs
//	paperbench -only table2 # one experiment; an unknown name exits
//	                        # non-zero and lists the valid names (the
//	                        # list lives in the experiment registry,
//	                        # cmd/paperbench/registry.go)
//	paperbench -jobs 4      # experiment-cell worker count
//	paperbench -metrics m.json -pprof-cpu cpu.pb.gz
//
// Experiments run on the internal/sweep orchestrator: independent
// (laptop × run × sweep-point) cells fan out across -jobs workers, and
// sweeps that differ only receiver-side replay memoized transmitter
// traces. Reports are byte-identical for every -jobs / -parallel /
// telemetry setting: stdout carries only the experiment report, while
// timing, cache statistics, and the telemetry summary go to stderr, the
// -metrics JSON snapshot to its own file, and profiles to theirs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/dsp"
	"pmuleak/internal/experiments"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchConfig is the parsed command line. The golden tests build it
// directly (bypassing flag parsing) to drive the harness in-process.
type benchConfig struct {
	Scale    experiments.Scale
	Only     string
	Seed     int64
	Show     bool
	Parallel int
	Jobs     int
	// Cells overrides the fleet campaign's population: it changes
	// which report is produced, not its stability.
	Cells     int64
	Stats     bool
	Metrics   string // write a telemetry JSON snapshot here at exit
	PprofCPU  string // write a runtime/pprof CPU profile here
	PprofHeap string // write a runtime/pprof heap profile here
	// Artifacts names a root directory to persist this run under: a
	// timestamped subdirectory holding the per-experiment CSV, the
	// telemetry snapshot, the stdout report, and an environment
	// manifest (internal/artifacts). Stdout stays byte-identical with
	// artifacts on or off.
	Artifacts string
	// Validate names a manifest.json (or run directory) to replay: the
	// recorded flags are re-executed and the fresh stdout digest must
	// match the manifest's. Nonzero exit on divergence.
	Validate string
}

// run parses args and executes the harness. Split from main so tests
// can run the binary's exact code path against in-memory streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick     = fs.Bool("quick", false, "CI-sized experiment scale")
		only      = fs.String("only", "", "run a single experiment: "+strings.Join(registryNames(), ", "))
		seed      = fs.Int64("seed", 2020, "experiment seed")
		show      = fs.Bool("spectrograms", false, "render ASCII spectrograms for the figures")
		parallel  = fs.Int("parallel", 0, "DSP worker count: 0 = all CPUs, 1 = serial, n = n workers (results are bit-identical either way)")
		jobs      = fs.Int("jobs", 0, "experiment-cell worker count: 0 = all CPUs, 1 = exact legacy serial (results are bit-identical either way)")
		cells     = fs.Int64("cells", 0, "fleet campaign population size: 0 = the scale's default")
		stats     = fs.Bool("stats", true, "report per-experiment wall time and the telemetry summary on stderr")
		metrics   = fs.String("metrics", "", "write a telemetry JSON snapshot to this file at exit")
		pprofCPU  = fs.String("pprof-cpu", "", "write a CPU profile (runtime/pprof) to this file")
		pprofHeap = fs.String("pprof-heap", "", "write a heap profile (runtime/pprof) to this file")
		arts      = fs.String("artifacts", "", "persist this run as a timestamped directory (CSV + telemetry snapshot + manifest + report) under this root; stdout is byte-identical either way")
		validate  = fs.String("validate", "", "replay the flags recorded in this manifest.json (or run dir) and verify the stdout digest reproduces; all other flags are ignored")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := benchConfig{
		Scale:     experiments.Full,
		Only:      *only,
		Seed:      *seed,
		Show:      *show,
		Parallel:  *parallel,
		Jobs:      *jobs,
		Cells:     *cells,
		Stats:     *stats,
		Metrics:   *metrics,
		PprofCPU:  *pprofCPU,
		PprofHeap: *pprofHeap,
		Artifacts: *arts,
		Validate:  *validate,
	}
	if *quick {
		cfg.Scale = experiments.Quick
	}
	return execute(cfg, stdout, stderr)
}

// execute runs the selected experiments under cfg. Only the experiment
// report is written to stdout; everything observational goes to stderr
// or to the files named by cfg, so stdout stays byte-stable across
// -jobs, -parallel, -stats, -metrics, and -pprof-* settings.
func execute(cfg benchConfig, stdout, stderr io.Writer) int {
	if cfg.Validate != "" {
		return runValidate(cfg.Validate, stdout, stderr)
	}

	dsp.SetDefaultParallelism(cfg.Parallel)
	sweep.SetDefaultJobs(cfg.Jobs)

	specs := registry()
	if cfg.Only != "" {
		known := false
		for _, s := range specs {
			if strings.EqualFold(cfg.Only, s.Name) {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(stderr, "paperbench: unknown experiment %q\nvalid names: %s\n",
				cfg.Only, strings.Join(registryNames(), ", "))
			return 2
		}
	}

	if cfg.PprofCPU != "" {
		f, err := os.Create(cfg.PprofCPU)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -pprof-cpu: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "paperbench: -pprof-cpu: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// With -artifacts, the report is teed through a digest and a copy on
	// the way to stdout — the bytes the user sees are the bytes persisted,
	// so stdout stays identical with artifacts on or off.
	out := stdout
	var collect *artifactRun
	if cfg.Artifacts != "" {
		collect = newArtifactRun()
		out = collect.tee(stdout)
	}

	rc := runContext{Seed: cfg.Seed, Scale: cfg.Scale, Show: cfg.Show, Cells: cfg.Cells}
	start := time.Now()
	for _, s := range specs {
		if cfg.Only != "" && !strings.EqualFold(cfg.Only, s.Name) {
			continue
		}
		expStart := time.Now()
		hits0, misses0 := core.TraceCacheStats()
		s.Run(out, rc)
		wall := time.Since(expStart)
		hits, misses := core.TraceCacheStats()
		if collect != nil {
			collect.addRow(s.Name, wall, hits-hits0, misses-misses0)
		}
		if cfg.Stats {
			fmt.Fprintf(stderr, "# %-15s %8v  trace-cache +%d hits +%d misses\n",
				s.Name, wall.Round(time.Millisecond),
				hits-hits0, misses-misses0)
		}
	}

	// The wall-clock line is observational, so it lives on stderr with
	// the rest of the stats: stdout is byte-stable by contract and must
	// not carry timing.
	snap := telemetry.Capture()
	if cfg.Stats {
		fmt.Fprintf(stderr, "# completed in %v\n", time.Since(start).Round(time.Millisecond))
		renderStats(stderr, snap)
	}
	if cfg.Metrics != "" {
		if err := writeMetrics(cfg.Metrics, snap); err != nil {
			fmt.Fprintf(stderr, "paperbench: -metrics: %v\n", err)
			return 1
		}
	}
	if collect != nil {
		dir, err := collect.write(cfg, snap)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -artifacts: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "# run artifacts written to %s\n", dir)
	}
	if cfg.PprofHeap != "" {
		if err := writeHeapProfile(cfg.PprofHeap); err != nil {
			fmt.Fprintf(stderr, "paperbench: -pprof-heap: %v\n", err)
			return 1
		}
	}
	return 0
}

// renderStats prints the telemetry snapshot on w: counters and gauges
// as sorted name/value pairs, histograms as count/mean/total. The
// iteration order comes from the snapshot's sorted accessors, so the
// report layout is stable across runs.
func renderStats(w io.Writer, snap telemetry.Snapshot) {
	fmt.Fprintf(w, "# telemetry\n")
	for _, name := range snap.CounterNames() {
		fmt.Fprintf(w, "#   %-34s %12d\n", name, snap.Counters[name])
	}
	for _, name := range snap.GaugeNames() {
		fmt.Fprintf(w, "#   %-34s %12d\n", name, snap.Gauges[name])
	}
	for _, name := range snap.HistogramNames() {
		h := snap.Histograms[name]
		fmt.Fprintf(w, "#   %-34s %12d x %10v = %v\n",
			name, h.Count, h.Mean().Round(time.Microsecond),
			time.Duration(h.SumNs).Round(time.Millisecond))
	}
}

// writeMetrics serializes the snapshot as deterministic (sorted-key)
// JSON to path.
func writeMetrics(path string, snap telemetry.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeapProfile records an end-of-run heap profile. The GC run
// beforehand makes the profile reflect live memory, not garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
