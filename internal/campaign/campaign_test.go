package campaign

import (
	"bytes"
	"fmt"
	"testing"

	"pmuleak/internal/sweep"
)

// testBundle is a reducer bundle exercising every reducer kind,
// including the float-state MeanVar whose determinism depends on the
// fixed partition and fold order.
type testBundle struct {
	hist   *Hist
	sketch *Sketch
	mv     MeanVar
	groups [4]MeanVar
	top    *TopK
}

func newTestBundle() *testBundle {
	return &testBundle{
		hist:   NewHist(0, 1, 64),
		sketch: NewSketch(0.01),
		top:    NewTopK(8),
	}
}

func (b *testBundle) merge(o *testBundle) {
	b.hist.Merge(o.hist)
	b.sketch.Merge(o.sketch)
	b.mv.Merge(o.mv)
	for g := range b.groups {
		b.groups[g].Merge(o.groups[g])
	}
	b.top.Merge(o.top)
}

// runTestCampaign runs a synthetic heterogeneous population over the
// given block partition at the given sweep worker count and renders its
// full-precision report.
func runTestCampaign(t *testing.T, cells int64, jobs, blocks int) []byte {
	sweep.SetDefaultJobs(jobs)
	t.Cleanup(func() { sweep.SetDefaultJobs(0) })
	cfg := Config{Cells: cells, Seed: 42}
	states := run(cfg.plan(blocks), func(b Block) *testBundle {
		tb := newTestBundle()
		for i := b.Lo; i < b.Hi; i++ {
			rng := b.Rng(i)
			group := rng.Intn(4)
			v := rng.Float64() * rng.Float64() // skewed toward 0
			tb.hist.Add(v)
			tb.sketch.Add(v)
			tb.mv.Add(v)
			tb.groups[group].Add(v)
			tb.top.Add(v, i)
		}
		return tb
	})
	total := newTestBundle()
	for _, s := range states {
		total.merge(s)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "n=%d mean=%.17g var=%.17g\n", total.mv.Count, total.mv.Mean, total.mv.Variance())
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		fmt.Fprintf(&buf, "hist q%.2f=%.17g sketch q%.2f=%.17g\n",
			q, total.hist.Quantile(q), q, total.sketch.Quantile(q))
	}
	for g, mv := range total.groups {
		fmt.Fprintf(&buf, "group %d: n=%d mean=%.17g std=%.17g\n", g, mv.Count, mv.Mean, mv.Std())
	}
	for _, it := range total.top.Items() {
		fmt.Fprintf(&buf, "top cell=%d v=%.17g\n", it.Cell, it.Value)
	}
	return buf.Bytes()
}

// TestCampaignShardWorkerInvariance is the load-bearing property test:
// the fully reduced report — rendered at full float precision — must be
// byte-identical at every worker count, including counts that do not
// divide the block count and pools larger than it. This is the
// in-package version of the acceptance criterion the paperbench fleet
// golden test enforces end to end.
func TestCampaignShardWorkerInvariance(t *testing.T) {
	const cells = 40000
	baseline := runTestCampaign(t, cells, 1, DefaultBlocks)
	if len(baseline) == 0 {
		t.Fatal("empty baseline report")
	}
	for _, jobs := range []int{2, 3, 4, 7, 8, 300} {
		got := runTestCampaign(t, cells, jobs, DefaultBlocks)
		if !bytes.Equal(got, baseline) {
			t.Fatalf("jobs=%d: report differs from serial baseline\n--- want\n%s--- got\n%s",
				jobs, baseline, got)
		}
	}
}

// TestCampaignBlocksArePartOfReportIdentity documents the flip side of
// the contract: the block partition (unlike the worker count) MAY move
// float reducer bytes, which is exactly why it is pinned to a constant.
// The integer-state quantile lines must agree regardless.
func TestCampaignBlocksArePartOfReportIdentity(t *testing.T) {
	a := runTestCampaign(t, 40000, 4, DefaultBlocks)
	b := runTestCampaign(t, 40000, 4, 17)
	// Same samples either way, so the exact-state reducer lines agree.
	aLines, bLines := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	if len(aLines) != len(bLines) {
		t.Fatalf("report shapes differ: %d vs %d lines", len(aLines), len(bLines))
	}
	for i := range aLines {
		if bytes.HasPrefix(aLines[i], []byte("hist ")) || bytes.HasPrefix(aLines[i], []byte("top ")) {
			if !bytes.Equal(aLines[i], bLines[i]) {
				t.Fatalf("exact-state line differs across block partitions:\n%s\n%s", aLines[i], bLines[i])
			}
		}
	}
}

// TestPlanResolution: the fixed partition, its clamp to tiny
// populations, and empty or negative ones.
func TestPlanResolution(t *testing.T) {
	cases := []struct {
		cells  int64
		blocks int
	}{
		{1 << 20, DefaultBlocks},
		{DefaultBlocks + 1, DefaultBlocks},
		{DefaultBlocks, DefaultBlocks},
		{10, 10},
		{1, 1},
		{0, 0},
		{-5, 0},
	}
	for _, tc := range cases {
		p := PlanOf(Config{Cells: tc.cells, Seed: 3})
		if p.Blocks != tc.blocks || p.Cells != max(tc.cells, 0) || p.Seed != 3 {
			t.Errorf("cells=%d: plan %+v, want %d blocks", tc.cells, p, tc.blocks)
		}
	}
}

// TestBlockPartitionCoversCells: blocks tile [0, cells) exactly, in
// order, with near-equal sizes, for awkward cell counts.
func TestBlockPartitionCoversCells(t *testing.T) {
	for _, cells := range []int64{1, 255, 256, 257, 1000003} {
		p := PlanOf(Config{Cells: cells})
		var next int64
		for i := 0; i < p.Blocks; i++ {
			b := blockAt(p, i)
			if b.Lo != next {
				t.Fatalf("cells=%d block %d starts at %d, want %d", cells, i, b.Lo, next)
			}
			if b.Cells() < 0 {
				t.Fatalf("cells=%d block %d negative size", cells, i)
			}
			next = b.Hi
		}
		if next != cells {
			t.Fatalf("cells=%d: blocks cover %d", cells, next)
		}
	}
}

// TestRunEmpty: zero cells produce no states and no work.
func TestRunEmpty(t *testing.T) {
	called := false
	if got := Run(Config{Cells: 0}, func(b Block) int { called = true; return 1 }); got != nil || called {
		t.Fatalf("empty campaign ran blocks: states=%v called=%v", got, called)
	}
}

// TestFlatReducerMemory pins the "flat memory" acceptance property at
// the reducer level: reducer state must not scale with the population.
// Hist/MeanVar/TopK state is exactly constant; Sketch state is bounded
// by the VALUE range (occupied buckets fill in logarithmically as a
// larger population samples deeper into the tail, then saturate), so a
// 16x population growth may add tail buckets but must stay far from
// 16x — and the whole state must stay under an absolute cap that an
// O(cells) result slice (8 MB of float64 at 1M cells) would blow
// through immediately.
func TestFlatReducerMemory(t *testing.T) {
	size := func(cells int64) int {
		cfg := Config{Cells: cells, Seed: 7}
		states := Run(cfg, func(b Block) *testBundle {
			tb := newTestBundle()
			for i := b.Lo; i < b.Hi; i++ {
				rng := b.Rng(i)
				v := rng.Float64()
				tb.hist.Add(v)
				tb.sketch.Add(v)
				tb.mv.Add(v)
				tb.top.Add(v, i)
			}
			return tb
		})
		total := 0
		for _, s := range states {
			total += s.hist.StateBytes() + s.sketch.StateBytes() + 16 /*MeanVar*/ + 16*8 /*TopK*/
		}
		return total
	}
	small, big := size(64_000), size(1_024_000)
	if float64(big) > 2.5*float64(small) {
		t.Fatalf("reducer state scales with the population: %d bytes at 64k cells, %d at 1M (16x cells)", small, big)
	}
	if big > 4<<20 {
		t.Fatalf("reducer state at 1M cells = %d bytes, want well under the 8 MB an O(cells) slice costs", big)
	}
}

// BenchmarkCampaignCells pairs the campaign's streamed reduction
// against the result-slice alternative it replaces: the same
// per-cell surrogate work either folded into per-block reducers
// (path=streamed, the campaign engine) or returned per cell through
// sweep and reduced afterwards (path=slices, what internal/sweep alone
// offers). cmd/emreport gates the throughput ratio via
// internal/campaign/testdata/bench_baseline.json; BENCH_experiments.json
// records the absolute cells/s.
func BenchmarkCampaignCells(b *testing.B) {
	const cells = 1 << 20
	work := func(rng interface{ Float64() float64 }) float64 {
		v := rng.Float64() * rng.Float64()
		return v
	}
	b.Run("path=slices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := PlanOf(Config{Cells: cells, Seed: 9})
			out := sweep.Map(cells, func(i int) float64 {
				rng := blockAt(p, 0).Rng(int64(i))
				return work(&rng)
			})
			h := NewHist(0, 1, 64)
			for _, v := range out {
				h.Add(v)
			}
			if h.N != cells {
				b.Fatal("bad count")
			}
		}
		b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	})
	b.Run("path=streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			states := Run(Config{Cells: cells, Seed: 9}, func(blk Block) *Hist {
				h := NewHist(0, 1, 64)
				for i := blk.Lo; i < blk.Hi; i++ {
					rng := blk.Rng(i)
					h.Add(work(&rng))
				}
				return h
			})
			total := NewHist(0, 1, 64)
			for _, s := range states {
				total.Merge(s)
			}
			if total.N != cells {
				b.Fatal("bad count")
			}
		}
		b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	})
}
