// Package campaign is the fleet-scale orchestration layer on top of
// internal/sweep: it runs very large populations of independent
// simulated cells (millions of transmitter/receiver pairs) with
// streaming reducers instead of result slices, so peak memory is
// O(blocks × reducer state) — independent of the cell count — and the
// reduced report is byte-identical at every worker count.
//
// # The determinism contract
//
// sweep's contract ("jobs=1 and jobs=N render byte-identical reports")
// carries over to populations through three rules:
//
//  1. Cell randomness is keyed by stable identity. Cell i draws from
//     xrand.Sub(seed, i) — a pure function of the campaign seed and the
//     cell's global index, never of the worker that happened to execute
//     it.
//
//  2. Reducer state is kept per BLOCK. The block partition depends only
//     on the cell count and the fixed DefaultBlocks; workers claim
//     whole blocks, one at a time, so the worker count never moves a
//     block boundary. The fixed block count is also what makes reducer
//     memory cell-count-independent.
//
//  3. Merges happen on the caller's goroutine, in block-index order,
//     after every block has finished. Exact-state reducers (integer
//     bucket counts, total-ordered top-k) are associative anyway;
//     float-state reducers (MeanVar) are not, and for them the fixed
//     partition plus the fixed fold order is precisely what pins the
//     byte pattern.
//
// Blocks are also the unit of execution and telemetry: one block is one
// sweep cell (sweep.Map), so the sweep.cell span under a campaign
// measures per-block latency, and the campaign.* series report
// population throughput.
package campaign

import (
	"time"

	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// Campaign telemetry. Cell and block counts are deterministic for a
// fixed configuration at every worker count; the block-duration
// histogram and the cells-per-second gauge observe the runtime and
// legitimately vary run to run.
var (
	campRuns        = telemetry.NewCounter("campaign.runs")
	campCells       = telemetry.NewCounter("campaign.cells")
	campBlocks      = telemetry.NewCounter("campaign.blocks")
	campBlockDur    = telemetry.NewHistogram("campaign.block")
	campCellsPerSec = telemetry.NewGauge("campaign.cells_per_sec")
)

// DefaultBlocks is the reduction partition. It is a constant, not a
// function of the machine or the cell count: the block partition is
// part of the report's identity (float reducers fold in block order),
// so everything that varies per run or per host must stay out of it.
// 256 blocks keep ~3 blocks per worker even on large machines while
// holding reducer memory to a few hundred states.
const DefaultBlocks = 256

// Config describes one campaign.
type Config struct {
	// Cells is the population size.
	Cells int64
	// Seed is the campaign seed; every cell substream derives from it.
	Seed int64
}

// Plan is a resolved Config: the concrete partition a campaign will
// execute. Deterministic given the Config.
type Plan struct {
	Cells  int64
	Blocks int
	Seed   int64
}

// plan resolves the partition into the given block count, clamped to
// the population: never more blocks than cells.
func (c Config) plan(blocks int) Plan {
	p := Plan{Cells: max(c.Cells, 0), Blocks: blocks, Seed: c.Seed}
	if int64(p.Blocks) > p.Cells {
		p.Blocks = int(p.Cells)
	}
	return p
}

// Block is one contiguous cell range [Lo, Hi) of the fixed reduction
// partition, with the campaign seed attached so cells can derive their
// substreams.
type Block struct {
	Index  int
	Lo, Hi int64
	Seed   int64
}

// Cells returns the block's population share.
func (b Block) Cells() int64 { return b.Hi - b.Lo }

// Rng derives cell's random substream. cell is the GLOBAL cell index
// (Lo <= cell < Hi): the substream key must be the cell's stable
// identity, not its block-relative offset, or two blocks would replay
// the same streams.
func (b Block) Rng(cell int64) xrand.Lite {
	return xrand.Sub(b.Seed, uint64(cell))
}

// Run executes the campaign: block(b) is called once per block of the
// fixed DefaultBlocks partition, fanned out over sweep workers one block
// per claim, and the per-block states come back in block-index order
// for the caller to fold. R is the caller's reducer bundle (typically a
// struct of Hist/Sketch/MeanVar/TopK).
//
// block must treat b as its complete input: derive all randomness via
// b.Rng(cell), share nothing mutable across blocks. Under that contract
// the returned slice is identical at every sweep.SetDefaultJobs
// setting.
func Run[R any](cfg Config, block func(b Block) R) []R {
	return run(cfg.plan(DefaultBlocks), block)
}

// run is Run over an explicit partition; tests use it to show that the
// block count, unlike the worker count, is part of the report's
// identity.
func run[R any](p Plan, block func(b Block) R) []R {
	if p.Blocks == 0 {
		return nil
	}
	campRuns.Inc()
	campCells.Add(uint64(p.Cells))
	campBlocks.Add(uint64(p.Blocks))

	start := time.Now()
	out := sweep.Map(p.Blocks, func(i int) R {
		sp := campBlockDur.Start()
		defer sp.End()
		return block(blockAt(p, i))
	})
	if el := time.Since(start).Seconds(); el > 0 {
		campCellsPerSec.Set(int64(float64(p.Cells) / el))
	}
	return out
}

// PlanOf exposes the resolved partition for reporting and tests.
func PlanOf(cfg Config) Plan { return cfg.plan(DefaultBlocks) }

// blockAt computes block i's range: cells are spread with the balanced
// i*cells/blocks boundaries, a pure function of (cells, blocks).
func blockAt(p Plan, i int) Block {
	lo := int64(i) * p.Cells / int64(p.Blocks)
	hi := int64(i+1) * p.Cells / int64(p.Blocks)
	return Block{Index: i, Lo: lo, Hi: hi, Seed: p.Seed}
}
