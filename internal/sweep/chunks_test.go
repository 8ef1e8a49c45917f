package sweep

import (
	"sync/atomic"
	"testing"
)

// The TestMapChunks* tests hold Map's contract for a chunked grid: the
// cells grouped into chunks and claimed one chunk per Map cell, each
// chunk running its cells in index order. This is the shape
// campaign.Run drives Map with (one block of cells per claim), so the
// chunk size is a test parameter here rather than an argument of Map.

// mapChunks runs cell(0) … cell(n-1) through Map in chunks of chunk
// cells (chunk < 1 means one cell per chunk) and returns the results in
// cell order.
func mapChunks[T any](n, chunk int, cell func(i int) T) []T {
	chunk = max(chunk, 1)
	parts := Map((n+chunk-1)/chunk, func(c int) []T {
		lo, hi := c*chunk, min((c+1)*chunk, n)
		out := make([]T, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, cell(i))
		}
		return out
	})
	if parts == nil {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestMapChunksEquivalence: for every (jobs, chunk) combination —
// including chunks that do not divide n, chunks larger than n, and the
// degenerate chunk<1 — the chunked grid must reproduce the serial
// per-cell grid exactly: chunking is an execution detail, never a
// semantic one.
func TestMapChunksEquivalence(t *testing.T) {
	const n = 257 // prime: no chunk size divides it evenly
	cell := func(i int) float64 {
		v := float64(i) * 1.7
		for k := 0; k < 50; k++ {
			v = v*0.999 + float64(k%7)*1e-3
		}
		return v
	}
	setJobs(t, 1)
	want := Map(n, cell)
	for _, jobs := range []int{1, 2, 4, 8} {
		setJobs(t, jobs)
		for _, chunk := range []int{-1, 0, 1, 2, 7, 64, 256, 257, 1000} {
			got := mapChunks(n, chunk, cell)
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
	setJobs(t, 8)
	mapChunks(n, 17, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestMapChunksEmpty mirrors the per-cell contract for empty grids.
func TestMapChunksEmpty(t *testing.T) {
	setJobs(t, 4)
	if got := mapChunks(0, 8, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

// TestMapChunksPanicPropagation: a panic anywhere inside a chunk is
// re-raised on the caller after the pool drains, as for a single cell.
func TestMapChunksPanicPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		setJobs(t, jobs)
		func() {
			defer func() {
				if r := recover(); r != "broken model" {
					t.Fatalf("jobs=%d: panic value = %v, want %q", jobs, r, "broken model")
				}
			}()
			mapChunks(64, 8, func(i int) int {
				if i == 37 {
					panic("broken model")
				}
				return i
			})
		}()
	}
}
