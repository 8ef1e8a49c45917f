package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pmuleak/internal/telemetry"
)

// FFTPlan holds the precomputed tables for one radix-2 transform size:
// the bit-reversal permutation and the per-stage forward twiddle
// factors. Building a plan costs O(n log n); applying it avoids
// re-deriving those tables on every call, which is where the
// receiver's STFT loops spend a large share of their time.
//
// A plan is immutable after construction and safe for concurrent use by
// any number of goroutines.
type FFTPlan struct {
	n     int
	pairs [][2]int32     // bit-reversal swaps, stored once with i < j
	rev   []int32        // full permutation: rev[i] = bit-reversed i
	fwd   [][]complex128 // fwd[s]: stage-(2<<s) twiddles
}

// planCache maps transform size -> *FFTPlan. Plans are tiny relative to
// the signals they transform and sizes form a small working set (one or
// two per pipeline), so entries are never evicted.
var planCache sync.Map

// The plan-cache counters. A miss is counted only by the goroutine
// whose plan actually lands in the cache (LoadOrStore loaded==false),
// so misses equal the number of distinct sizes planned and both series
// are deterministic for a given workload even when concurrent callers
// race to build the same first plan.
var (
	planHits   = telemetry.NewCounter("dsp.fftplan.hits")
	planMisses = telemetry.NewCounter("dsp.fftplan.misses")
)

// Kernel-path counters for the speed pass. Both count work that is a
// pure function of the workload geometry (transform sizes and frame
// counts), so like the engine counters they are deterministic across
// parallelism levels for a fixed workload.
var (
	// radix4Pairs counts fused stage pairs (two radix-2 stages walked in
	// one pass — the radix-4 dataflow) executed by the fused kernels.
	radix4Pairs = telemetry.NewCounter("dsp.fft.radix4.pairs")
	// fusedGathers counts fused window+permute input gathers, i.e. frames
	// that skipped the separate copy/window/swap passes.
	fusedGathers = telemetry.NewCounter("dsp.fft.fusedgather")
)

// PlanFFT returns the shared transform plan for size n, computing and
// caching it on first use. n must be a positive power of two; anything
// else panics, mirroring FFT's own contract.
func PlanFFT(n int) *FFTPlan {
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("dsp: PlanFFT size %d is not a power of two", n))
	}
	if p, ok := planCache.Load(n); ok {
		planHits.Inc()
		return p.(*FFTPlan)
	}
	p, loaded := planCache.LoadOrStore(n, newFFTPlan(n))
	if loaded {
		planHits.Inc()
	} else {
		planMisses.Inc()
	}
	return p.(*FFTPlan)
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n, rev: make([]int32, n)}
	if n == 1 {
		return p
	}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		p.rev[i] = int32(j)
		if j > i {
			p.pairs = append(p.pairs, [2]int32{int32(i), int32(j)})
		}
	}
	for size := 2; size <= n; size <<= 1 {
		p.fwd = append(p.fwd, stageTwiddles(size))
	}
	return p
}

// stageTwiddles builds the forward twiddle table for one stage size:
// fw[k] = exp(-2πik/size) for k in [0, size/2). Each entry is computed
// directly from cos/sin (never by the historical w *= step recurrence,
// whose rounding error grows along the table), and two symmetries are
// enforced bit-exactly by construction:
//
//	fw[0]         = (1, 0)
//	fw[size/4]    = (0, -1)              (the quarter turn)
//	fw[half-k]    = -conj(fw[k])         (half-turn reflection)
//
// The upper quadrant is the reflection of the first, not a fresh
// cos/sin evaluation, and those stored bits are part of every
// transform's output: the golden report digest (TestGoldenDigest)
// pins them, so the construction must not change. See DESIGN.md §9.
func stageTwiddles(size int) []complex128 {
	half := size >> 1
	quarter := half >> 1
	fw := make([]complex128, half)
	fw[0] = complex(1, 0)
	for k := 1; k < half; k++ {
		switch {
		case k == quarter:
			fw[k] = complex(0, -1)
		case k < quarter:
			theta := 2 * math.Pi * float64(k) / float64(size)
			fw[k] = complex(math.Cos(theta), -math.Sin(theta))
		default: // k > quarter: reflect the first quadrant
			m := fw[half-k]
			fw[k] = complex(-real(m), imag(m))
		}
	}
	return fw
}

// Size reports the transform length the plan was built for.
func (p *FFTPlan) Size() int { return p.n }

// Transform computes the forward DFT of x in place. len(x) must equal
// the plan size.
func (p *FFTPlan) Transform(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: FFTPlan size %d applied to length %d", p.n, len(x)))
	}
	for _, pr := range p.pairs {
		x[pr[0]], x[pr[1]] = x[pr[1]], x[pr[0]]
	}
	p.stagesFused(x, p.fwd)
}

// stagesFused runs the butterfly stages over bit-reversed data, fusing
// consecutive stage pairs into one pass: for each output quartet the
// stage-s butterflies (u0,u1,v0,v1) are kept in registers and fed
// straight into the stage-(s+1) butterflies, which is the radix-4
// dataflow — half the loads and stores of two radix-2 passes — while
// performing the exact radix-2 arithmetic per element. Every multiply
// and add happens on the same values in the same order as the reference
// apply loop (applyOracle in the tests), so the result is bit-identical
// to it (a true radix-4 kernel would reassociate the sums and change low-order bits; that is
// precisely what this formulation avoids). An odd final stage falls
// back to one plain radix-2 pass.
func (p *FFTPlan) stagesFused(x []complex128, tw [][]complex128) {
	s := 0
	for ; s+1 < len(tw); s += 2 {
		w1, w2 := tw[s], tw[s+1]
		size1 := 2 << uint(s)
		half1 := size1 >> 1
		size2 := size1 << 1
		for base := 0; base < p.n; base += size2 {
			for k := 0; k < half1; k++ {
				i0 := base + k
				i1 := i0 + half1
				i2 := i0 + size1
				i3 := i2 + half1
				a0, a1 := x[i0], x[i1]
				b0, b1 := x[i2], x[i3]
				ta := a1 * w1[k]
				u0, u1 := a0+ta, a0-ta
				tb := b1 * w1[k]
				v0, v1 := b0+tb, b0-tb
				t0 := v0 * w2[k]
				t1 := v1 * w2[k+half1]
				x[i0], x[i2] = u0+t0, u0-t0
				x[i1], x[i3] = u1+t1, u1-t1
			}
		}
	}
	if s>>1 > 0 {
		radix4Pairs.Add(uint64(s >> 1))
	}
	if s < len(tw) {
		stage := tw[s]
		size := 2 << uint(s)
		half := size >> 1
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * stage[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// WindowedTransform computes the forward DFT of the windowed frame
// src·window into dst, leaving src untouched. It fuses the per-frame
// copy, window multiply, and bit-reversal permutation into a single
// gather — dst[rev[i]] = src[i]·(window[i],0), the same complex multiply
// ApplyWindow performs — and then runs the butterfly stages, so the
// result is bit-identical to copying src into dst, calling ApplyWindow
// and then Transform. window may be nil to skip windowing (a plain
// permuted copy). len(dst), len(src) and a non-nil len(window) must
// equal the plan size.
func (p *FFTPlan) WindowedTransform(dst, src []complex128, window []float64) {
	if len(src) != p.n || len(dst) != p.n {
		panic(fmt.Sprintf("dsp: FFTPlan size %d gather on lengths %d/%d", p.n, len(src), len(dst)))
	}
	rev := p.rev
	if window == nil {
		for i, v := range src {
			dst[rev[i]] = v
		}
	} else {
		if len(window) != p.n {
			panic("dsp: frame/window length mismatch")
		}
		for i, v := range src {
			dst[rev[i]] = v * complex(window[i], 0)
		}
	}
	fusedGathers.Inc()
	p.stagesFused(dst, p.fwd)
}
