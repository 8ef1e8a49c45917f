package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmuleak/internal/artifacts"
	"pmuleak/internal/telemetry"
)

// writeRun persists one synthetic run directory with known wall times
// and scoring counters: covert BER 2/1000 and keylog recall 95/100.
func writeRun(t *testing.T, root string, now time.Time, wallTable2, wallFleet float64) string {
	t.Helper()
	r := telemetry.NewRegistry()
	r.Counter("core.covert.tx_bits").Add(1000)
	r.Counter("core.covert.bit_errors").Add(2)
	r.Counter("core.keylog.truth_keys").Add(100)
	r.Counter("core.keylog.matched_keys").Add(95)
	m := artifacts.NewManifest(now)
	m.Flags["seed"] = "2020"
	m.WallSeconds = (wallTable2 + wallFleet) / 1000
	rows := []artifacts.Row{
		{Experiment: "table2", WallMS: wallTable2, CacheHits: 4, CacheMisses: 1},
		{Experiment: "fleet", WallMS: wallFleet},
	}
	dir, err := artifacts.WriteRun(root, now, m, rows, r.Snapshot(), []byte("report\n"))
	if err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	return dir
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runReport drives emreport in-process with stdin.
func runReport(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errs)
	return code, out.String(), errs.String()
}

// TestReportOnly: no baseline, well-formed runs, exit 0 with the
// grouped table and aggregates on stdout.
func TestReportOnly(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, time.Date(2026, 8, 9, 10, 0, 0, 0, time.UTC), 1000, 200)
	writeRun(t, root, time.Date(2026, 8, 9, 11, 0, 0, 0, time.UTC), 1200, 240)

	code, s, stderr := runReport("", root)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"runs analyzed: 2",
		"table2",        // grouped row
		"1100.0",        // table2 mean
		"covert BER",    // aggregate
		"keylog recall", // aggregate
		"0.950",         // 190/200 recall
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "gates:") {
		t.Fatalf("report-only run printed a gate verdict:\n%s", s)
	}
}

// TestGatePassAndFail drives every run gate through its pass and fail
// sides. The two runs measure total wall 1200 and 1440 ms (mean 1320),
// table2 1000 and 1200 ms (mean 1100), fleet 200 and 240 ms (mean
// 220), covert BER 2e-3 and keylog recall 0.95. A passing baseline
// exits 0 and prints the verdict; each failing threshold trips alone,
// exits 1 and is listed on stderr.
func TestGatePassAndFail(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, time.Date(2026, 8, 9, 10, 0, 0, 0, time.UTC), 1000, 200)
	writeRun(t, root, time.Date(2026, 8, 9, 11, 0, 0, 0, time.UTC), 1200, 240)

	pass := writeBaseline(t, `{"max_total_wall_ms":1320,
		"experiments":[{"name":"table2","max_wall_ms":1100}],
		"max_covert_ber":0.002,"min_keylog_recall":0.95}`)
	code, stdout, stderr := runReport("", "-baseline", pass, root)
	if code != 0 {
		t.Fatalf("passing baseline exited %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"gates: all passed", "ok (max 1100 ms)"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("pass report missing %q:\n%s", want, stdout)
		}
	}

	for _, tc := range []struct{ baseline, tripped string }{
		{`{"max_total_wall_ms":1319}`, "FAIL total wall 1320.0 ms > max 1319 ms"},
		{`{"experiments":[{"name":"fleet","max_wall_ms":219}]}`, "FAIL experiment fleet: wall 220.0 ms > max 219 ms"},
		{`{"max_covert_ber":0.0019}`, "FAIL covert BER 2.000e-03 > max 0.0019"},
		{`{"min_keylog_recall":0.951}`, "FAIL keylog recall 0.950 < min 0.951"},
	} {
		code, stdout, stderr := runReport("", "-baseline", writeBaseline(t, tc.baseline), root)
		if code != 1 || !strings.Contains(stderr, tc.tripped) || !strings.Contains(stderr, "1 regression gate(s)") {
			t.Errorf("%s: exit %d, want 1 tripping only %q; stderr:\n%s", tc.baseline, code, tc.tripped, stderr)
		}
		if strings.Contains(stdout, "gates: all passed") {
			t.Errorf("%s: failing baseline printed the pass verdict", tc.baseline)
		}
	}
}

// TestAnalyzeGates drives analyze on the two runs above: rows group per
// experiment in name order, the scoring counters pool across runs, a
// baseline at the measured values trips nothing, one just past them on
// every side trips all four gates at once, and a nil or empty baseline
// only reports.
func TestAnalyzeGates(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, time.Date(2026, 8, 9, 10, 0, 0, 0, time.UTC), 1000, 200)
	writeRun(t, root, time.Date(2026, 8, 9, 11, 0, 0, 0, time.UTC), 1200, 240)
	dirs, err := artifacts.DiscoverRuns(root)
	if err != nil {
		t.Fatal(err)
	}
	var runs []*artifacts.Run
	for _, d := range dirs {
		r, err := artifacts.LoadRun(d)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}

	a := analyze(runs, &Baseline{MaxTotalWallMS: 1320, Experiments: []ExperimentGate{{"table2", 1100}},
		MaxCovertBER: 0.002, MinKeylogRecall: 0.95})
	if len(a.Failures) != 0 {
		t.Fatalf("passing baseline tripped gates: %v", a.Failures)
	}
	if a.Runs != 2 || len(a.PerExperiment) != 2 || a.PerExperiment[0].Name != "fleet" || a.PerExperiment[1].Name != "table2" {
		t.Fatalf("analysis shape: %+v", a)
	}
	if st := a.PerExperiment[1]; st.Wall.N != 2 || st.Wall.Mean != 1100 || st.CacheHits != 8 || st.CacheMisses != 2 || st.Status != "ok" {
		t.Fatalf("table2 = %+v, want mean 1100 over 2, 8 hits, 2 misses, ok", st)
	}
	if a.PerExperiment[0].Status != "-" || a.CovertBER != 0.002 || a.KeylogRecall != 0.95 {
		t.Fatalf("fleet status %q, BER %v, recall %v", a.PerExperiment[0].Status, a.CovertBER, a.KeylogRecall)
	}

	a = analyze(runs, &Baseline{MaxTotalWallMS: 1319, Experiments: []ExperimentGate{{"fleet", 219}},
		MaxCovertBER: 0.0019, MinKeylogRecall: 0.951})
	if len(a.Failures) != 4 || a.PerExperiment[0].Status != "FAIL" {
		t.Fatalf("failing baseline tripped %v, fleet %q; want 4 and FAIL", a.Failures, a.PerExperiment[0].Status)
	}

	for _, base := range []*Baseline{nil, {}} {
		if a := analyze(runs, base); len(a.Failures) != 0 {
			t.Fatalf("baseline %+v without thresholds produced failures: %v", base, a.Failures)
		}
	}
}

// TestHistory renders the BENCH_experiments.json trajectory.
func TestHistory(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, time.Now().UTC(), 100, 50)
	hist := filepath.Join(t.TempDir(), "hist.json")
	if err := os.WriteFile(hist, []byte(`{"machine":"2-vCPU x86-64","date":"2026-08-06","workload":"quick",
		"wall_seconds":{"after_defaults":20.407,"before_pr2_serial":23.235}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	code, s, stderr := runReport("", "-history", hist, root)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(s, "after_defaults") || !strings.Contains(s, "23.235") || !strings.Contains(s, "machine: 2-vCPU x86-64") {
		t.Fatalf("history missing:\n%s", s)
	}
	// Sorted labels: after_defaults before before_pr2_serial.
	if strings.Index(s, "after_defaults") > strings.Index(s, "before_pr2_serial") {
		t.Fatalf("history labels not sorted:\n%s", s)
	}
}

// TestUsageAndIOErrors: bad invocations exit 2, never 1 (so CI can
// tell "regression" from "broken invocation").
func TestUsageAndIOErrors(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root, time.Now().UTC(), 100, 50)
	pairs := writeBaseline(t, `{"pairs":[{"name":"BenchmarkFFT","ref_suffix":"path=reference","new_suffix":"path=fused","min_speedup":1}]}`)
	for _, tc := range []struct {
		name, stdin string
		args        []string
	}{
		{"no args", sampleBench, nil},
		{"empty dir", "", []string{t.TempDir()}},
		{"missing baseline", "", []string{"-baseline", "/nonexistent.json", root}},
		{"missing history", "", []string{"-history", "/nonexistent.json", root}},
		{"stale tolerance key", "", []string{"-baseline", writeBaseline(t, `{"tolerance":0.1,"max_total_wall_ms":1e9}`), root}},
		{"pair without suffixes", sampleBench, []string{"-baseline", writeBaseline(t, `{"pairs":[{"name":"BenchmarkFFT","min_speedup":1}]}`)}},
		{"run baseline on stdin", sampleBench, []string{"-baseline", writeBaseline(t, `{"max_total_wall_ms":1e9}`)}},
		{"pair baseline on runs", "", []string{"-baseline", pairs, root}},
		{"no bench lines", "PASS\n", []string{"-baseline", pairs}},
	} {
		if code, _, stderr := runReport(tc.stdin, tc.args...); code != 2 {
			t.Errorf("%s: exit %d, want 2; stderr: %s", tc.name, code, stderr)
		}
	}
}

const sampleBench = `goos: linux
goarch: amd64
pkg: pmuleak/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSTFT/path=reference-8         	     176	  13716296 ns/op	 6315432 B/op	     524 allocs/op
BenchmarkSTFT/path=fused-8             	     385	   5910965 ns/op	 4198560 B/op	       5 allocs/op
BenchmarkWelch/path=reference          	     406	   5639701 ns/op	   32776 B/op	       4 allocs/op
BenchmarkWelch/path=fused              	    1374	   1935357 ns/op	   32856 B/op	       5 allocs/op
PASS
ok  	pmuleak/internal/dsp	12.425s
`

// fusedPair is a baseline holding one path=reference/path=fused pair.
func fusedPair(name string, floor float64) string {
	return fmt.Sprintf(`{"pairs":[{"name":%q,"ref_suffix":"path=reference","new_suffix":"path=fused","min_speedup":%g}]}`, name, floor)
}

func TestParseBench(t *testing.T) {
	results, err := parseBench(sampleBench)
	if err != nil {
		t.Fatal(err)
	}
	// The -8 CPU suffix must be stripped, and its absence tolerated.
	want := map[string][]float64{
		"BenchmarkSTFT/path=reference":  {13716296},
		"BenchmarkSTFT/path=fused":      {5910965},
		"BenchmarkWelch/path=reference": {5639701},
		"BenchmarkWelch/path=fused":     {1935357},
	}
	if !reflect.DeepEqual(results, want) {
		t.Errorf("parseBench = %v, want %v", results, want)
	}
	if _, err := parseBench("no benchmarks here\n"); err == nil {
		t.Error("empty input did not error")
	}
}

// TestBenchGatePasses: the sample's STFT speedup is 2.32x and its Welch
// speedup 2.91x, so floors at or below them pass, one row per pair.
func TestBenchGatePasses(t *testing.T) {
	code, stdout, stderr := runReport(sampleBench, "-baseline", writeBaseline(t, `{"pairs":[
		{"name":"BenchmarkSTFT","ref_suffix":"path=reference","new_suffix":"path=fused","min_speedup":2.3},
		{"name":"BenchmarkWelch","ref_suffix":"path=reference","new_suffix":"path=fused","min_speedup":2.9}]}`))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"speedup  2.32x  gate 2.30x  ok", "speedup  2.91x  gate 2.90x  ok", "gates: all passed"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("report missing %q:\n%s", want, stdout)
		}
	}
}

// TestBenchGateHardFloor: a floor just above the sample's 2.32x STFT
// speedup fails the pair, on its row and on stderr.
func TestBenchGateHardFloor(t *testing.T) {
	code, stdout, stderr := runReport(sampleBench, "-baseline", writeBaseline(t, fusedPair("BenchmarkSTFT", 2.33)))
	if code != 1 || !strings.Contains(stdout, "gate 2.33x  FAIL") ||
		!strings.Contains(stderr, "FAIL BenchmarkSTFT: speedup 2.32x < min 2.33x") {
		t.Fatalf("floor above the ratio: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestBenchGateRegression: a Welch floor of 3.6x (a 4.0x recording less
// 10%) fails the sample's 2.91x alone; the STFT pair beside it still
// reports ok, and no pass verdict is printed.
func TestBenchGateRegression(t *testing.T) {
	code, stdout, stderr := runReport(sampleBench, "-baseline", writeBaseline(t, `{"pairs":[
		{"name":"BenchmarkSTFT","ref_suffix":"path=reference","new_suffix":"path=fused","min_speedup":2.3},
		{"name":"BenchmarkWelch","ref_suffix":"path=reference","new_suffix":"path=fused","min_speedup":3.6}]}`))
	if code != 1 || !strings.Contains(stderr, "1 regression gate(s)") ||
		!strings.Contains(stderr, "FAIL BenchmarkWelch: speedup 2.91x < min 3.6x") {
		t.Fatalf("exit %d, want 1 tripping only Welch; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "gate 2.30x  ok") || !strings.Contains(stdout, "gate 3.60x  FAIL") ||
		strings.Contains(stdout, "gates: all passed") {
		t.Fatalf("rows:\n%s", stdout)
	}
}

// TestBenchGateMissingSide: a pair with no matching benchmark lines is
// a failure, not a silent skip, or renaming a benchmark would disable
// its gate.
func TestBenchGateMissingSide(t *testing.T) {
	code, _, stderr := runReport(sampleBench, "-baseline", writeBaseline(t, fusedPair("BenchmarkNoSuch", 1)))
	if code != 1 || !strings.Contains(stderr, "missing") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	oneSided := "BenchmarkSTFT/path=reference-8   100   3000 ns/op\n"
	code, _, stderr = runReport(oneSided, "-baseline", writeBaseline(t, fusedPair("BenchmarkSTFT", 1)))
	if code != 1 || !strings.Contains(stderr, "missing") {
		t.Fatalf("one side only: exit %d, stderr: %s", code, stderr)
	}
}

// TestBenchGateCustomSuffixes: each pair names its own sub-benchmark
// variants; the campaign baseline gates path=slices vs path=streamed.
func TestBenchGateCustomSuffixes(t *testing.T) {
	bench := `goos: linux
BenchmarkCampaignCells/path=slices-8     	       2	 200000000 ns/op
BenchmarkCampaignCells/path=streamed-8   	      22	  20000000 ns/op
PASS
`
	code, stdout, stderr := runReport(bench, "-baseline", writeBaseline(t, `{"pairs":[{"name":"BenchmarkCampaignCells",
		"ref_suffix":"path=slices","new_suffix":"path=streamed","min_speedup":7.2}]}`))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "path=slices") || !strings.Contains(stdout, "10.00x") {
		t.Fatalf("report missing custom-suffix columns:\n%s", stdout)
	}
	// Other suffixes against the same input must fail as missing, not
	// silently pass.
	code, _, stderr = runReport(bench, "-baseline", writeBaseline(t, fusedPair("BenchmarkCampaignCells", 1)))
	if code != 1 || !strings.Contains(stderr, "missing") {
		t.Fatalf("fused suffixes matched the campaign bench: exit %d, stderr: %s", code, stderr)
	}
}

// TestBenchGateMedianOfRepeats: over three repeats the gate takes the
// median of the per-run ratios (1.0x, 2.5x, 3.0x here), so one slow run
// cannot fail the pair alone, and two slow runs out of three do fail
// it. Unequal repeat counts fail.
func TestBenchGateMedianOfRepeats(t *testing.T) {
	repeats := func(fused ...string) string {
		out := "goos: linux\n"
		for _, ns := range fused {
			out += "BenchmarkFFT/path=reference-8   100   3000 ns/op\n"
			out += "BenchmarkFFT/path=fused-8       100   " + ns + " ns/op\n"
		}
		return out + "PASS\n"
	}
	baseline := writeBaseline(t, fusedPair("BenchmarkFFT", 2))
	code, stdout, stderr := runReport(repeats("1200", "1000", "3000"), "-baseline", baseline)
	if code != 0 {
		t.Fatalf("one slow run of three failed the median gate: exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "2.50x (median of 3)") {
		t.Fatalf("report does not show the median ratio:\n%s", stdout)
	}
	if code, stdout, _ := runReport(repeats("1000", "3000", "3000"), "-baseline", baseline); code != 1 {
		t.Fatalf("two slow runs of three passed the median gate: exit %d\n%s", code, stdout)
	}
	unequal := repeats("1000", "1000") + "BenchmarkFFT/path=reference-8   100   3000 ns/op\n"
	if code, _, stderr := runReport(unequal, "-baseline", baseline); code != 1 || !strings.Contains(stderr, "results but") {
		t.Fatalf("unequal repeat counts: exit %d, stderr: %s", code, stderr)
	}
}

// checkedIn lists every checked-in baseline with its thresholds.
var checkedIn = []struct {
	name, path string
	want       Baseline
}{
	{"dsp-kernels", "../../internal/dsp/testdata/bench_baseline.json", Baseline{Pairs: []Pair{
		{"BenchmarkSTFTComplex", "path=reference", "path=fused", 1.17},
		{"BenchmarkFFT", "path=reference", "path=fused", 1.35},
	}}},
	{"dsp-receiver", "../../internal/dsp/testdata/receiver_bench_baseline.json", Baseline{Pairs: []Pair{
		{"BenchmarkQuantile", "path=sort", "path=select", 6.3},
		{"BenchmarkFindPeaks", "path=reference", "path=neighbours", 12.6},
		{"BenchmarkConvolve", "path=reference", "path=blocked", 2.16},
	}}},
	{"campaign", "../../internal/campaign/testdata/bench_baseline.json", Baseline{Pairs: []Pair{
		{"BenchmarkCampaignCells", "path=slices", "path=streamed", 7.2},
	}}},
	{"laptop", "../../internal/laptop/testdata/bench_baseline.json", Baseline{Pairs: []Pair{
		{"BenchmarkEmanations", "path=materialized", "path=streamed", 1.62},
	}}},
	{"core", "../../internal/core/testdata/bench_baseline.json", Baseline{Pairs: []Pair{
		{"BenchmarkSynthesis", "path=sequential", "path=staged", 1.215},
	}}},
	{"quick", "testdata/baseline_quick.json", Baseline{
		MaxTotalWallMS: 75000,
		Experiments: []ExperimentGate{
			{"robustness", 25000},
			{"countermeasures", 20000},
			{"table4", 11250},
		},
		MaxCovertBER:    0.022675,
		MinKeylogRecall: 0.5175,
	}},
	{"regression", "testdata/baseline_regression.json", Baseline{MaxTotalWallMS: 0.001}},
}

// TestCheckedInBaselines: every checked-in baseline decodes under the
// strict schema, says what it measured, and gates at exactly the
// thresholds the CI jobs rely on.
func TestCheckedInBaselines(t *testing.T) {
	for _, tc := range checkedIn {
		t.Run(tc.name, func(t *testing.T) {
			got, err := loadBaseline(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Comment == "" {
				t.Errorf("%s: no _comment", tc.path)
			}
			got.Comment = ""
			if !reflect.DeepEqual(*got, tc.want) {
				t.Errorf("%s = %+v, want %+v", tc.path, *got, tc.want)
			}
		})
	}
}

// TestBenchGateMustFire: for each checked-in benchmark baseline,
// synthetic output with every pair exactly at its floor passes, and
// the same output with one pair at half its floor exits 1.
func TestBenchGateMustFire(t *testing.T) {
	for _, tc := range checkedIn {
		path, base := tc.path, tc.want
		if len(base.Pairs) == 0 {
			continue
		}
		for slow := -1; slow < len(base.Pairs); slow++ {
			var bench strings.Builder
			for i, p := range base.Pairs {
				speedup := p.MinSpeedup
				if i == slow {
					speedup /= 2
				}
				fmt.Fprintf(&bench, "%s/%s-2 1 %.0f ns/op\n", p.Name, p.RefSuffix, 1e6*speedup)
				fmt.Fprintf(&bench, "%s/%s-2 1 %.0f ns/op\n", p.Name, p.NewSuffix, 1e6)
			}
			want := 1
			if slow < 0 {
				want = 0
			}
			if code, stdout, stderr := runReport(bench.String(), "-baseline", path); code != want {
				t.Errorf("%s with pair %d at half its floor: exit %d, want %d\n%s%s", path, slow, code, want, stdout, stderr)
			}
		}
	}
}
