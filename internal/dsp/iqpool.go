package dsp

import (
	"sync"

	"pmuleak/internal/telemetry"
)

// iqPool recycles IQ sample buffers for the channel/radio hot path.
// The pool stores *[]complex128 (not []complex128) so Put does not
// allocate a fresh interface box per call.
//
// Contract: GetIQ returns a buffer of exactly length n whose contents
// are ARBITRARY — callers must fully overwrite every element before
// reading any (em.Render, emchannel.Path.Process and
// sdr.Frontend.Process all do, so a capture's buffer is rendered, run
// through the channel and the radio in place, and handed to the
// capture). PutIQ must only be called once the buffer is provably
// dead: no Capture, Demod, or cached trace may still reference it.
var iqPool sync.Pool

// The pool's accounting. Gets and puts count call sites and are
// deterministic for a fixed workload; allocs and undersized-discards
// depend on pool state (sync.Pool empties under GC pressure and is
// per-P), so they legitimately vary run to run and across -jobs
// settings.
var (
	iqGets     = telemetry.NewCounter("dsp.iqpool.gets")
	iqPuts     = telemetry.NewCounter("dsp.iqpool.puts")
	iqAllocs   = telemetry.NewCounter("dsp.iqpool.allocs")
	iqDiscards = telemetry.NewCounter("dsp.iqpool.undersized_discards")
)

// GetIQ returns a []complex128 of length n, reusing a pooled buffer
// when one with sufficient capacity is available. Contents are not
// zeroed.
func GetIQ(n int) []complex128 {
	iqGets.Inc()
	if v := iqPool.Get(); v != nil {
		buf := *(v.(*[]complex128))
		if cap(buf) >= n {
			return buf[:n]
		}
		// Too small for this request; drop it and allocate.
		iqDiscards.Inc()
	}
	iqAllocs.Inc()
	return make([]complex128, n)
}

// PutIQ returns a buffer to the pool. Safe to call with nil or empty
// slices (no-op). The caller must not touch buf afterwards.
func PutIQ(buf []complex128) {
	if cap(buf) == 0 {
		return
	}
	iqPuts.Inc()
	buf = buf[:cap(buf)]
	iqPool.Put(&buf)
}
