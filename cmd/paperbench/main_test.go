package main

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/sweep"
)

// goldenBaseline renders the serial reference output once and caches
// it for every golden test in the package: a full render is the
// expensive part of these tests (minutes under -race), and the baseline
// is identical for all of them — jobs=1, an empty trace cache at the
// start, seed 2020, goldenScale.
var golden struct {
	once     sync.Once
	baseline []byte
}

func goldenBaseline(t *testing.T) []byte {
	t.Helper()
	golden.once.Do(func() {
		t.Cleanup(func() { sweep.SetDefaultJobs(0) })
		golden.baseline = renderAll(1)
	})
	if len(golden.baseline) == 0 {
		t.Fatal("baseline render is empty")
	}
	return golden.baseline
}

// renderAll runs every registered experiment into one buffer at the
// given worker count, starting from an empty transmitter-trace cache.
func renderAll(jobs int) []byte {
	sweep.SetDefaultJobs(jobs)
	core.ResetTraceCache()
	var buf bytes.Buffer
	rc := runContext{Seed: 2020, Scale: goldenScale}
	for _, s := range registry() {
		s.Run(&buf, rc)
	}
	return buf.Bytes()
}

// TestGoldenEquivalence is the orchestrator's contract test on the
// telemetry-silent path: every experiment renderer must produce
// byte-identical output whether cells run serially or fanned out, with
// the transmitter-trace cache replaying shared traces within the render
// (concurrently, at jobs > 1). The cache is always on, which the
// cache=true in each subtest's name records; that a replay equals a
// fresh simulation is core's TestTraceCacheEquivalence. The -jobs grid
// is build-tagged (jobs 4 only under -race, at a trimmed scale — see
// scale_race_test.go).
func TestGoldenEquivalence(t *testing.T) {
	t.Cleanup(func() {
		sweep.SetDefaultJobs(0)
		core.ResetTraceCache()
	})

	baseline := goldenBaseline(t)
	for _, jobs := range goldenEquivalenceJobs {
		t.Run(fmt.Sprintf("jobs=%d,cache=true", jobs), func(t *testing.T) {
			got := renderAll(jobs)
			if !bytes.Equal(got, baseline) {
				t.Fatalf("output differs from the serial baseline\n"+
					"baseline %d bytes, got %d bytes\nfirst divergence: %s",
					len(baseline), len(got), firstDiff(baseline, got))
			}
		})
	}
}

// firstDiff locates the first differing byte and quotes context around
// it, for a readable failure.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("one output is a prefix of the other (lengths %d vs %d)", len(a), len(b))
}

// TestRegistryNamesUnique guards the -only contract: names are the
// lookup keys, so duplicates would silently shadow experiments.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range registryNames() {
		if seen[n] {
			t.Errorf("duplicate registry name %q", n)
		}
		seen[n] = true
	}
	if len(seen) != 21 {
		t.Errorf("registry has %d experiments, want 21", len(seen))
	}
}

// TestRetiredFlagsRejected: flags whose every value gave the same
// report are gone, and naming one is a usage error (exit 2, nothing on
// stdout) rather than a silent no-op. Recorded manifests that carry
// their keys still replay (TestManifestFlagsRoundTrip).
func TestRetiredFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"},
		{"-tracecache=false"},
		{"-tracecache-cap", "4"},
		{"-nofused"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", args, out.Len())
		}
		if !bytes.Contains(errs.Bytes(), []byte("flag provided but not defined")) ||
			!bytes.Contains(errs.Bytes(), []byte("Usage of paperbench")) {
			t.Errorf("%v: stderr lacks the usage error:\n%s", args, errs.String())
		}
	}
}
