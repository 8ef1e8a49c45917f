package sweep

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapChunksEquivalence: for every (jobs, chunk) combination —
// including chunks that do not divide n, chunks larger than n, and the
// degenerate chunk<1 — MapChunks must reproduce MapJobs's results
// exactly. This is the satellite's equivalence proof: chunking is an
// execution detail, never a semantic one.
func TestMapChunksEquivalence(t *testing.T) {
	const n = 257 // prime: no chunk size divides it evenly
	cell := func(i int) float64 {
		v := float64(i) * 1.7
		for k := 0; k < 50; k++ {
			v = v*0.999 + float64(k%7)*1e-3
		}
		return v
	}
	want := MapJobs(1, n, cell)
	for _, jobs := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{-1, 0, 1, 2, 7, 64, 256, 257, 1000} {
			got := MapChunks(jobs, n, chunk, cell)
			if len(got) != n {
				t.Fatalf("jobs=%d chunk=%d: %d results, want %d", jobs, chunk, len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("jobs=%d chunk=%d: cell %d differs: %v != %v",
						jobs, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMapChunksEveryCellOnce: chunked claiming still visits each index
// exactly once under contention, including a ragged final chunk.
func TestMapChunksEveryCellOnce(t *testing.T) {
	const n = 1003
	var counts [n]atomic.Int32
	MapChunks(8, n, 17, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestMapChunksEmpty mirrors the MapJobs contract for empty grids.
func TestMapChunksEmpty(t *testing.T) {
	if got := MapChunks(4, 0, 8, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

// TestMapChunksPanicPropagation: a panic anywhere inside a chunk is
// re-raised on the caller after the pool drains, like MapJobs.
func TestMapChunksPanicPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "broken model" {
					t.Fatalf("jobs=%d: panic value = %v, want %q", jobs, r, "broken model")
				}
			}()
			MapChunks(jobs, 64, 8, func(i int) int {
				if i == 37 {
					panic("broken model")
				}
				return i
			})
		}()
	}
}

// TestMapChunksChunkOrder: within one chunk, cells run in ascending
// index order on a single goroutine — the property that lets the
// campaign layer keep sequential per-chunk state.
func TestMapChunksChunkOrder(t *testing.T) {
	const n, chunk = 96, 16
	var last [n / chunk]atomic.Int32
	for i := range last {
		last[i].Store(-1)
	}
	MapChunks(4, n, chunk, func(i int) int {
		c := i / chunk
		if prev := last[c].Load(); int(prev) != i%chunk-1 {
			t.Errorf("chunk %d: cell %d ran after in-chunk position %d", c, i, prev)
		}
		last[c].Store(int32(i % chunk))
		return i
	})
}

// BenchmarkMapTrivialCells is the satellite microbench: one million
// trivial cells, per-cell claiming versus chunked claiming. The
// per-cell path pays an atomic RMW plus two time.Now calls per cell;
// the chunked path amortizes both over 4096 cells. cmd/emreport
// gates the ratio (internal/campaign/testdata/bench_baseline.json).
func BenchmarkMapTrivialCells(b *testing.B) {
	const n = 1 << 20
	cell := func(i int) int64 { return int64(i) * 2654435761 }
	for _, bc := range []struct {
		name  string
		chunk int
	}{
		{"path=percell", 1},
		{"path=chunked", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := MapChunks(4, n, bc.chunk, cell)
				if out[n-1] == 0 {
					b.Fatal("unexpected zero")
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkMapTrivialCellsSerial pins the serial (jobs=1) overhead the
// same way, isolating span bookkeeping from work-stealing contention.
func BenchmarkMapTrivialCellsSerial(b *testing.B) {
	const n = 1 << 20
	cell := func(i int) int64 { return int64(i) * 2654435761 }
	for _, chunk := range []int{1, 4096} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MapChunks(1, n, chunk, cell)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
