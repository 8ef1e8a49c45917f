// Command benchguard gates paired speedup benchmarks in CI. It parses
// `go test -bench` output on stdin (or a file), pairs each benchmark's
// new-path result with its reference result (sub-benchmark suffixes,
// "path=reference"/"path=fused" by default, per-pair overridable — the
// campaign engine gates "path=slices" vs "path=streamed"), and enforces
// the speedup ratio against a checked-in baseline:
//
//	speedup >= max(min_speedup, baseline_speedup * (1 - tolerance))
//
// Ratios, not nanoseconds: both paths run in the same process on the
// same machine, so their quotient survives runner-speed differences
// that would make any absolute ns/op threshold flake. Under -count N
// each pair yields N ratios (the k-th reference result over the k-th
// new-path result) and the gate applies to their median, so one noisy
// run cannot fail or pass it alone; with -count 1 the median is the one
// ratio. min_speedup is
// the hard product floor (the ">= 2x on STFT and Welch" acceptance
// line); baseline_speedup*(1-tolerance) is the benchstat-style
// regression gate that catches a kernel slowdown long before it eats
// the whole 2x margin.
//
// Usage:
//
//	go test -run '^$' -bench 'STFT|FFT' -benchtime 2s -count 5 ./internal/dsp/ | \
//	    benchguard -baseline internal/dsp/testdata/bench_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the checked-in expectation set.
type Baseline struct {
	// Tolerance is the allowed relative drop below BaselineSpeedup
	// (0.10 = fail on a >10% regression).
	Tolerance float64 `json:"tolerance"`
	Pairs     []Pair  `json:"pairs"`
}

// Pair is one benchmark family with a slow (reference) and a fast
// (new-path) variant, distinguished by sub-benchmark suffix.
type Pair struct {
	// Name is the benchmark function name, e.g. "BenchmarkSTFT".
	Name string `json:"name"`
	// RefSuffix and NewSuffix name the two sub-benchmarks whose ratio
	// is gated. They default to the DSP kernels' original
	// "path=reference" and "path=fused", so existing baselines need no
	// edit; other packages (the campaign engine gates
	// "path=slices" vs "path=streamed") set them explicitly.
	RefSuffix string `json:"ref_suffix,omitempty"`
	NewSuffix string `json:"new_suffix,omitempty"`
	// MinSpeedup is the hard floor on ref/new (acceptance criteria),
	// independent of the recorded baseline.
	MinSpeedup float64 `json:"min_speedup"`
	// BaselineSpeedup is the recorded ref/new ratio; the gate is
	// BaselineSpeedup*(1-Tolerance).
	BaselineSpeedup float64 `json:"baseline_speedup"`
}

// suffixes resolves the pair's sub-benchmark names with the historical
// defaults.
func (p Pair) suffixes() (ref, new string) {
	ref, new = p.RefSuffix, p.NewSuffix
	if ref == "" {
		ref = "path=reference"
	}
	if new == "" {
		new = "path=fused"
	}
	return ref, new
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "baseline JSON (required)")
	input := fs.String("in", "", "bench output file; default stdin")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath == "" {
		fmt.Fprintln(stderr, "benchguard: -baseline is required")
		return 2
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchguard: parsing %s: %v\n", *baselinePath, err)
		return 2
	}
	in := stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	text, err := io.ReadAll(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: reading bench output: %v\n", err)
		return 2
	}
	results, err := parseBench(string(text))
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}
	return check(base, results, stdout, stderr)
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSTFT/path=fused-8   386   5910965 ns/op   4198560 B/op ...
//
// The trailing -N GOMAXPROCS suffix is optional (absent when
// GOMAXPROCS is 1).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench extracts name -> ns/op of every result line, in input
// order (one per -count repeat). Sub-benchmark names keep their
// /path=... suffix; the -N CPU suffix is stripped.
func parseBench(out string) (map[string][]float64, error) {
	results := map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil || ns <= 0 {
			return nil, fmt.Errorf("bad ns/op on line %q", line)
		}
		results[m[1]] = append(results[m[1]], ns)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	return results, nil
}

// median returns the middle value of x (the mean of the two middle
// values for an even count); x is reordered.
func median(x []float64) float64 {
	sort.Float64s(x)
	n := len(x)
	if n%2 == 1 {
		return x[n/2]
	}
	return (x[n/2-1] + x[n/2]) / 2
}

func check(base Baseline, results map[string][]float64, stdout, stderr io.Writer) int {
	failures := 0
	for _, p := range base.Pairs {
		refSuffix, newSuffix := p.suffixes()
		refs := results[p.Name+"/"+refSuffix]
		fasts := results[p.Name+"/"+newSuffix]
		if len(refs) == 0 || len(fasts) == 0 {
			fmt.Fprintf(stderr, "benchguard: %s: missing %s or %s result\n",
				p.Name, refSuffix, newSuffix)
			failures++
			continue
		}
		if len(refs) != len(fasts) {
			fmt.Fprintf(stderr, "benchguard: %s: %d %s results but %d %s results\n",
				p.Name, len(refs), refSuffix, len(fasts), newSuffix)
			failures++
			continue
		}
		ratios := make([]float64, len(refs))
		for k := range refs {
			ratios[k] = refs[k] / fasts[k]
		}
		speedup := median(ratios)
		ref, fast := median(append([]float64(nil), refs...)), median(append([]float64(nil), fasts...))
		gate := p.BaselineSpeedup * (1 - base.Tolerance)
		if p.MinSpeedup > gate {
			gate = p.MinSpeedup
		}
		status := "ok"
		if speedup < gate {
			status = "FAIL"
			failures++
		}
		runs := ""
		if len(ratios) > 1 {
			runs = fmt.Sprintf(" (median of %d)", len(ratios))
		}
		fmt.Fprintf(stdout,
			"%-24s %s %12.0f ns/op  %s %12.0f ns/op  speedup %5.2fx%s  gate %.2fx  %s\n",
			p.Name, refSuffix, ref, newSuffix, fast, speedup, runs, gate, status)
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchguard: %d benchmark gate(s) failed\n", failures)
		return 1
	}
	return 0
}
