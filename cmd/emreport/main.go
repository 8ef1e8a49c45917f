// Command emreport is the repository's one regression gate. It has two
// inputs and one baseline schema:
//
//   - Run directories. Given persisted paperbench runs
//     (internal/artifacts), it prints grouped per-experiment wall-time
//     mean±std tables and the aggregate covert BER and keylog recall
//     from the runs' telemetry snapshots, and gates them against the
//     baseline's run thresholds. The wall-seconds history in
//     BENCH_experiments.json (-history) is printed alongside for
//     trajectory context.
//   - Benchmark output. Given no run directory, it reads `go test
//     -bench` output on stdin and gates each baseline pair's speedup:
//     the k-th ref_suffix result over the k-th new_suffix result, then
//     the median over the repeats, must reach min_speedup. Ratios, not
//     nanoseconds: both paths run back to back on the same machine, so
//     their quotient survives runner-speed differences that would make
//     an absolute ns/op threshold flake, and the median keeps one noisy
//     run from deciding the gate alone.
//
// Usage:
//
//	emreport runs/                       # report only
//	emreport -baseline base.json runs/   # gate: exit 1 on regression
//	emreport -history BENCH_experiments.json runA/ runB/
//	for i in 1 2 3 4 5; do
//	    go test -run '^$' -bench 'STFT|FFT' -benchtime 2s -count 1 ./internal/dsp/
//	done | emreport -baseline internal/dsp/testdata/bench_baseline.json
//
// Each positional argument is a run directory (holding manifest.json)
// or a root whose immediate children are run directories. Exit codes:
// 0 clean, 1 a gate tripped, 2 usage or unreadable input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"pmuleak/internal/artifacts"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run parses args and renders the report. Split from main so tests can
// drive the binary's exact code path in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath = fs.String("baseline", "", "baseline JSON; enables the gates, and with no run directory gates the go test -bench output read from stdin")
		histPath = fs.String("history", "", "BENCH_experiments.json to print the recorded wall-seconds trajectory from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 && *basePath == "" {
		fmt.Fprintln(stderr, "emreport: no run directories given\nusage: emreport [-baseline base.json] [-history BENCH_experiments.json] RUNS...\n       go test -bench ... | emreport -baseline base.json")
		return 2
	}

	var base *Baseline
	if *basePath != "" {
		b, err := loadBaseline(*basePath)
		if err != nil {
			fmt.Fprintf(stderr, "emreport: -baseline: %v\n", err)
			return 2
		}
		base = b
	}

	var failures []string
	if fs.NArg() == 0 {
		if len(base.Pairs) == 0 {
			fmt.Fprintf(stderr, "emreport: -baseline %s has no benchmark pairs to gate stdin against\n", *basePath)
			return 2
		}
		text, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "emreport: reading bench output: %v\n", err)
			return 2
		}
		results, err := parseBench(string(text))
		if err != nil {
			fmt.Fprintf(stderr, "emreport: %v\n", err)
			return 2
		}
		failures = checkPairs(stdout, base.Pairs, results)
	} else {
		if base != nil && len(base.Pairs) > 0 {
			fmt.Fprintf(stderr, "emreport: -baseline %s gates benchmark pairs; pipe `go test -bench` output to it with no run directory\n", *basePath)
			return 2
		}
		var runs []*artifacts.Run
		for _, arg := range fs.Args() {
			dirs, err := artifacts.DiscoverRuns(arg)
			if err != nil {
				fmt.Fprintf(stderr, "emreport: %v\n", err)
				return 2
			}
			for _, d := range dirs {
				r, err := artifacts.LoadRun(d)
				if err != nil {
					fmt.Fprintf(stderr, "emreport: %v\n", err)
					return 2
				}
				runs = append(runs, r)
			}
		}
		a := analyze(runs, base)
		renderAnalysis(stdout, runs, a, base)
		failures = a.Failures
	}

	if *histPath != "" {
		if err := renderHistory(stdout, *histPath); err != nil {
			fmt.Fprintf(stderr, "emreport: -history: %v\n", err)
			return 2
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(stderr, "emreport: %d regression gate(s) tripped:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(stderr, "  FAIL %s\n", f)
		}
		return 1
	}
	if base != nil {
		fmt.Fprintln(stdout, "gates: all passed")
	}
	return 0
}

// renderAnalysis prints the grouped tables. Layout is deterministic:
// experiments come back from analyze sorted by name, runs in the order
// they were discovered.
func renderAnalysis(w io.Writer, runs []*artifacts.Run, a analysis, base *Baseline) {
	fmt.Fprintf(w, "runs analyzed: %d\n", a.Runs)
	for _, r := range runs {
		env := fmt.Sprintf("%s %s/%s cpus=%d", r.Manifest.GoVersion, r.Manifest.GOOS, r.Manifest.GOARCH, r.Manifest.NumCPU)
		if r.Manifest.GitRevision != "" {
			rev := r.Manifest.GitRevision
			if len(rev) > 12 {
				rev = rev[:12]
			}
			env += " rev=" + rev
			if r.Manifest.GitModified {
				env += "+dirty"
			}
		}
		fmt.Fprintf(w, "  %s  %s  seed=%s wall=%.2fs\n",
			r.Manifest.CreatedUTC, env, r.Manifest.Flags["seed"], r.Manifest.WallSeconds)
	}

	fmt.Fprintf(w, "\n%-16s %3s %12s %10s %12s %10s  %s\n",
		"experiment", "n", "mean ms", "std ms", "cache hits", "misses", "gate")
	for _, st := range a.PerExperiment {
		gate := st.Status
		if st.MaxWallMS > 0 {
			gate = fmt.Sprintf("%s (max %g ms)", st.Status, st.MaxWallMS)
		}
		fmt.Fprintf(w, "%-16s %3d %12.1f %10.1f %12d %10d  %s\n",
			st.Name, st.Wall.N, st.Wall.Mean, st.Wall.Std,
			st.CacheHits, st.CacheMisses, gate)
	}

	fmt.Fprintf(w, "\ntotal wall      mean %.1f ms ± %.1f over %d run(s)\n",
		a.TotalWall.Mean, a.TotalWall.Std, a.TotalWall.N)
	if a.CovertBits > 0 {
		fmt.Fprintf(w, "covert BER      %.3e over %d tx bits\n", a.CovertBER, a.CovertBits)
	}
	if a.KeylogKeys > 0 {
		fmt.Fprintf(w, "keylog recall   %.3f over %d truth keys\n", a.KeylogRecall, a.KeylogKeys)
	}
	if base != nil {
		fmt.Fprintf(w, "gates           total wall ≤ %g ms, covert BER ≤ %g, keylog recall ≥ %g (0 = ungated)\n",
			base.MaxTotalWallMS, base.MaxCovertBER, base.MinKeylogRecall)
	}
}

// benchHistory is the slice of BENCH_experiments.json emreport cares
// about: the labeled wall-seconds trajectory.
type benchHistory struct {
	Machine     string             `json:"machine"`
	Date        string             `json:"date"`
	Workload    string             `json:"workload"`
	WallSeconds map[string]float64 `json:"wall_seconds"`
}

// renderHistory prints the recorded wall-seconds series, sorted by
// label for a stable layout.
func renderHistory(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var h benchHistory
	if err := json.Unmarshal(raw, &h); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	fmt.Fprintf(w, "\nhistory (%s, %s):\n", path, h.Date)
	if h.Machine != "" {
		fmt.Fprintf(w, "  machine: %s\n", h.Machine)
	}
	if h.Workload != "" {
		fmt.Fprintf(w, "  workload: %s\n", h.Workload)
	}
	labels := make([]string, 0, len(h.WallSeconds))
	for l := range h.WallSeconds {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(w, "  %-32s %8.3f s\n", l, h.WallSeconds[l])
	}
	return nil
}
