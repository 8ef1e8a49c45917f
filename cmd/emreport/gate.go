package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pmuleak/internal/artifacts"
)

// Baseline is the one checked-in gate schema. Each gate is one
// threshold, named for the side that fails; a zero or absent threshold
// disables its gate. Pairs gate benchmark output read from stdin; the
// rest gate run directories.
type Baseline struct {
	// Comment says what was measured and how to re-record it.
	Comment string `json:"_comment"`
	Pairs   []Pair `json:"pairs,omitempty"`
	// MaxTotalWallMS caps the mean harness wall time.
	MaxTotalWallMS float64 `json:"max_total_wall_ms,omitempty"`
	// Experiments cap individual experiments' mean wall time.
	Experiments []ExperimentGate `json:"experiments,omitempty"`
	// MaxCovertBER caps the aggregate covert bit-error rate
	// (core.covert.bit_errors / core.covert.tx_bits).
	MaxCovertBER float64 `json:"max_covert_ber,omitempty"`
	// MinKeylogRecall floors the aggregate keystroke recall
	// (core.keylog.matched_keys / core.keylog.truth_keys).
	MinKeylogRecall float64 `json:"min_keylog_recall,omitempty"`
}

// Pair is one benchmark family with a reference and a new-path variant,
// distinguished by sub-benchmark suffix ("path=reference" and
// "path=fused" for the FFT, "path=slices" and "path=streamed" for the
// campaign engine).
type Pair struct {
	// Name is the benchmark function name, e.g. "BenchmarkSTFTComplex".
	Name      string `json:"name"`
	RefSuffix string `json:"ref_suffix"`
	NewSuffix string `json:"new_suffix"`
	// MinSpeedup is the floor on the median reference/new ratio.
	MinSpeedup float64 `json:"min_speedup"`
}

// ExperimentGate caps one experiment's mean wall time.
type ExperimentGate struct {
	Name      string  `json:"name"`
	MaxWallMS float64 `json:"max_wall_ms"`
}

// loadBaseline decodes a baseline file strictly: a key the schema does
// not name (a stale "tolerance", say) is an error rather than a
// silently ignored field, and every pair must name both sides and a
// floor.
func loadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, p := range b.Pairs {
		if p.Name == "" || p.RefSuffix == "" || p.NewSuffix == "" || p.MinSpeedup <= 0 {
			return nil, fmt.Errorf("%s: pair %q needs name, ref_suffix, new_suffix and a positive min_speedup", path, p.Name)
		}
	}
	return &b, nil
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkSTFT/path=fused-8   386   5910965 ns/op   4198560 B/op ...
//
// The trailing -N GOMAXPROCS suffix is optional (absent when
// GOMAXPROCS is 1).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench extracts name -> ns/op of every result line, in input
// order (one per repeat). Sub-benchmark names keep their /path=...
// suffix; the -N CPU suffix is stripped.
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

// checkPairs prints one row per pair and returns the tripped gates. A
// pair with a missing side or unequal repeat counts fails rather than
// being skipped, so renaming a benchmark cannot disable its gate.
func checkPairs(w io.Writer, pairs []Pair, results map[string][]float64) []string {
	var failures []string
	for _, p := range pairs {
		refs := results[p.Name+"/"+p.RefSuffix]
		news := results[p.Name+"/"+p.NewSuffix]
		if len(refs) == 0 || len(news) == 0 {
			failures = append(failures, fmt.Sprintf("%s: missing %s or %s result", p.Name, p.RefSuffix, p.NewSuffix))
			continue
		}
		if len(refs) != len(news) {
			failures = append(failures, fmt.Sprintf("%s: %d %s results but %d %s results",
				p.Name, len(refs), p.RefSuffix, len(news), p.NewSuffix))
			continue
		}
		ratios := make([]float64, len(refs))
		for k := range refs {
			ratios[k] = refs[k] / news[k]
		}
		speedup := median(ratios)
		status := "ok"
		if speedup < p.MinSpeedup {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: speedup %.2fx < min %gx", p.Name, speedup, p.MinSpeedup))
		}
		runs := ""
		if len(ratios) > 1 {
			runs = fmt.Sprintf(" (median of %d)", len(ratios))
		}
		fmt.Fprintf(w, "%-24s %s %12.0f ns/op  %s %12.0f ns/op  speedup %5.2fx%s  gate %.2fx  %s\n",
			p.Name, p.RefSuffix, median(append([]float64(nil), refs...)), p.NewSuffix, median(append([]float64(nil), news...)),
			speedup, runs, p.MinSpeedup, status)
	}
	return failures
}

// meanStd is a mean ± sample standard deviation over n values.
type meanStd struct {
	N    int
	Mean float64
	Std  float64
}

func newMeanStd(vals []float64) meanStd {
	s := meanStd{N: len(vals)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range vals {
			d := v - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// expStat is one experiment's aggregate across the analyzed runs.
type expStat struct {
	Name        string
	Wall        meanStd
	CacheHits   uint64 // summed across runs
	CacheMisses uint64
	// MaxWallMS is the matching gate (0 = ungated); Status is "ok",
	// "FAIL", or "-" when ungated.
	MaxWallMS float64
	Status    string
}

// analysis is the grouped view emreport renders, plus the tripped
// gates.
type analysis struct {
	Runs          int
	PerExperiment []expStat
	TotalWall     meanStd
	// CovertBER and KeylogRecall aggregate the core scoring counters
	// over all runs (they are deterministic per configuration, so
	// cross-run aggregation is a consistency check, not averaging noise).
	CovertBER    float64
	CovertBits   uint64
	KeylogRecall float64
	KeylogKeys   uint64
	Failures     []string
}

// analyze groups the runs' rows per experiment, aggregates the scoring
// counters, and applies the baseline's run gates (nil baseline = report
// only).
func analyze(runs []*artifacts.Run, base *Baseline) analysis {
	a := analysis{Runs: len(runs)}
	wallByExp := map[string][]float64{}
	hitsByExp := map[string]uint64{}
	missByExp := map[string]uint64{}
	var totals []float64
	var bits, errs, truth, matched uint64
	for _, r := range runs {
		var total float64
		for _, row := range r.Rows {
			wallByExp[row.Experiment] = append(wallByExp[row.Experiment], row.WallMS)
			hitsByExp[row.Experiment] += row.CacheHits
			missByExp[row.Experiment] += row.CacheMisses
			total += row.WallMS
		}
		if r.Manifest.WallSeconds > 0 {
			total = r.Manifest.WallSeconds * 1000
		}
		totals = append(totals, total)
		bits += r.Snapshot.Counters["core.covert.tx_bits"]
		errs += r.Snapshot.Counters["core.covert.bit_errors"]
		truth += r.Snapshot.Counters["core.keylog.truth_keys"]
		matched += r.Snapshot.Counters["core.keylog.matched_keys"]
	}
	a.TotalWall = newMeanStd(totals)
	a.CovertBits = bits
	if bits > 0 {
		a.CovertBER = float64(errs) / float64(bits)
	}
	a.KeylogKeys = truth
	if truth > 0 {
		a.KeylogRecall = float64(matched) / float64(truth)
	}
	if base == nil {
		base = &Baseline{}
	}

	maxByName := map[string]float64{}
	for _, g := range base.Experiments {
		maxByName[g.Name] = g.MaxWallMS
	}
	names := make([]string, 0, len(wallByExp))
	for name := range wallByExp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := expStat{
			Name:        name,
			Wall:        newMeanStd(wallByExp[name]),
			CacheHits:   hitsByExp[name],
			CacheMisses: missByExp[name],
			MaxWallMS:   maxByName[name],
			Status:      "-",
		}
		if st.MaxWallMS > 0 {
			st.Status = "ok"
			if st.Wall.Mean > st.MaxWallMS {
				st.Status = "FAIL"
				a.Failures = append(a.Failures,
					fmt.Sprintf("experiment %s: wall %.1f ms > max %g ms", name, st.Wall.Mean, st.MaxWallMS))
			}
		}
		a.PerExperiment = append(a.PerExperiment, st)
	}

	if base.MaxTotalWallMS > 0 && a.TotalWall.Mean > base.MaxTotalWallMS {
		a.Failures = append(a.Failures,
			fmt.Sprintf("total wall %.1f ms > max %g ms", a.TotalWall.Mean, base.MaxTotalWallMS))
	}
	if base.MaxCovertBER > 0 && bits > 0 && a.CovertBER > base.MaxCovertBER {
		a.Failures = append(a.Failures,
			fmt.Sprintf("covert BER %.3e > max %g", a.CovertBER, base.MaxCovertBER))
	}
	if base.MinKeylogRecall > 0 && truth > 0 && a.KeylogRecall < base.MinKeylogRecall {
		a.Failures = append(a.Failures,
			fmt.Sprintf("keylog recall %.3f < min %g", a.KeylogRecall, base.MinKeylogRecall))
	}
	return a
}
