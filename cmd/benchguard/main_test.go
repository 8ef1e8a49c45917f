package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestParseBench(t *testing.T) {
	results, err := parseBench(sampleBench)
	if err != nil {
		t.Fatal(err)
	}
	// The -8 CPU suffix must be stripped, and its absence tolerated.
	want := map[string]float64{
		"BenchmarkSTFT/path=reference":  13716296,
		"BenchmarkSTFT/path=fused":      5910965,
		"BenchmarkWelch/path=reference": 5639701,
		"BenchmarkWelch/path=fused":     1935357,
	}
	for name, ns := range want {
		if got := results[name]; len(got) != 1 || got[0] != ns {
			t.Errorf("%s = %v, want [%v]", name, got, ns)
		}
	}
	if _, err := parseBench("no benchmarks here\n"); err == nil {
		t.Error("empty input did not error")
	}
}

func baselineFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runGuard(t *testing.T, baseline, bench string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	code = run([]string{"-baseline", baselineFile(t, baseline)},
		strings.NewReader(bench), &out, &errs)
	return code, out.String(), errs.String()
}

func TestGatePasses(t *testing.T) {
	code, stdout, stderr := runGuard(t, `{
		"tolerance": 0.10,
		"pairs": [
			{"name": "BenchmarkSTFT", "min_speedup": 2.0, "baseline_speedup": 2.2},
			{"name": "BenchmarkWelch", "min_speedup": 2.0, "baseline_speedup": 2.5}
		]
	}`, sampleBench)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "BenchmarkSTFT") || !strings.Contains(stdout, "ok") {
		t.Fatalf("report missing expected lines:\n%s", stdout)
	}
}

// TestGateHardFloor: the sample's STFT speedup is 2.32x, so a 2.5x
// hard floor must fail even though the recorded baseline would pass.
func TestGateHardFloor(t *testing.T) {
	code, stdout, _ := runGuard(t, `{
		"tolerance": 0.10,
		"pairs": [{"name": "BenchmarkSTFT", "min_speedup": 2.5, "baseline_speedup": 2.0}]
	}`, sampleBench)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FAIL") {
		t.Fatalf("no FAIL in report:\n%s", stdout)
	}
}

// TestGateRegression: with no hard floor, a baseline far above the
// measured ratio fails via the tolerance gate — the >10% regression
// rule.
func TestGateRegression(t *testing.T) {
	code, _, stderr := runGuard(t, `{
		"tolerance": 0.10,
		"pairs": [{"name": "BenchmarkWelch", "min_speedup": 1.0, "baseline_speedup": 4.0}]
	}`, sampleBench)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
}

// TestGateMissingPair: a baseline entry with no matching benchmark
// lines is a failure, not a silent skip — otherwise renaming a
// benchmark would disable its gate.
func TestGateMissingPair(t *testing.T) {
	code, _, stderr := runGuard(t, `{
		"tolerance": 0.10,
		"pairs": [{"name": "BenchmarkNoSuch", "min_speedup": 1.0, "baseline_speedup": 1.0}]
	}`, sampleBench)
	if code != 1 || !strings.Contains(stderr, "missing") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestGateCustomSuffixes: a pair may name its own sub-benchmark
// variants; the campaign baseline gates path=slices vs path=streamed.
func TestGateCustomSuffixes(t *testing.T) {
	bench := `goos: linux
BenchmarkCampaignCells/path=slices-8     	       2	 200000000 ns/op
BenchmarkCampaignCells/path=streamed-8   	      22	  20000000 ns/op
PASS
`
	code, stdout, stderr := runGuard(t, `{
		"tolerance": 0.10,
		"pairs": [{"name": "BenchmarkCampaignCells",
			"ref_suffix": "path=slices", "new_suffix": "path=streamed",
			"min_speedup": 3.0, "baseline_speedup": 8.0}]
	}`, bench)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "path=slices") || !strings.Contains(stdout, "10.00x") {
		t.Fatalf("report missing custom-suffix columns:\n%s", stdout)
	}
	// Wrong suffixes against the same input must fail as missing, not
	// silently pass.
	code, _, stderr = runGuard(t, `{
		"tolerance": 0.10,
		"pairs": [{"name": "BenchmarkCampaignCells", "min_speedup": 1.0, "baseline_speedup": 1.0}]
	}`, bench)
	if code != 1 || !strings.Contains(stderr, "missing") {
		t.Fatalf("default suffixes matched the campaign bench: exit %d, stderr: %s", code, stderr)
	}
}

// TestGateMedianOfRepeats: under -count 3 the gate takes the median of
// the per-run ratios (1.0x, 2.5x, 3.0x here), so the one slow run that
// the last result line alone would have judged cannot fail the pair,
// and two slow runs out of three do fail it.
func TestGateMedianOfRepeats(t *testing.T) {
	repeats := func(fused ...string) string {
		out := "goos: linux\n"
		for _, ns := range fused {
			out += "BenchmarkFFT/path=reference-8   100   3000 ns/op\n"
			out += "BenchmarkFFT/path=fused-8       100   " + ns + " ns/op\n"
		}
		return out + "PASS\n"
	}
	baseline := `{"tolerance": 0.10,
		"pairs": [{"name": "BenchmarkFFT", "min_speedup": 2.0, "baseline_speedup": 2.0}]}`
	code, stdout, stderr := runGuard(t, baseline, repeats("1200", "1000", "3000"))
	if code != 0 {
		t.Fatalf("one slow run of three failed the median gate: exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "2.50x (median of 3)") {
		t.Fatalf("report does not show the median ratio:\n%s", stdout)
	}
	if code, stdout, _ := runGuard(t, baseline, repeats("1000", "3000", "3000")); code != 1 {
		t.Fatalf("two slow runs of three passed the median gate: exit %d\n%s", code, stdout)
	}
	unequal := repeats("1000", "1000") + "BenchmarkFFT/path=reference-8   100   3000 ns/op\n"
	if code, _, stderr := runGuard(t, baseline, unequal); code != 1 || !strings.Contains(stderr, "results but") {
		t.Fatalf("unequal repeat counts: exit %d, stderr: %s", code, stderr)
	}
}

// TestRepoCampaignBaselineParses guards the checked-in campaign
// baseline: it must parse and gate the sample above successfully.
func TestRepoCampaignBaselineParses(t *testing.T) {
	raw, err := os.ReadFile("../../internal/campaign/testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("campaign baseline does not parse: %v", err)
	}
	if len(base.Pairs) == 0 {
		t.Fatal("campaign baseline has no pairs")
	}
	for _, p := range base.Pairs {
		ref, new := p.suffixes()
		if ref == "path=reference" || new == "path=fused" {
			t.Fatalf("campaign pair %s fell back to the DSP default suffixes", p.Name)
		}
	}
}

// TestRepoBaselineParses guards the checked-in baseline file itself.
func TestRepoBaselineParses(t *testing.T) {
	raw, err := os.ReadFile("../../internal/dsp/testdata/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	code := run([]string{"-baseline", baselineFile(t, string(raw))},
		strings.NewReader(sampleBench), &bytes.Buffer{}, &bytes.Buffer{})
	// The sample lacks STFTComplex/FFT pairs, so the repo baseline must
	// report them missing (exit 1) — but it must parse.
	if code != 1 {
		t.Fatalf("exit %d, want 1 (missing pairs)", code)
	}
}
