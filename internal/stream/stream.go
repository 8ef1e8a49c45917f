// Package stream is the transport and supervision layer of the
// long-lived attack monitor the paper's threat model implies (§V runs
// continuous near-field monitoring; an always-on receiver cannot hold
// the whole capture). The receive pipelines themselves live in the
// packages that define them, as incremental processors: covert.Receiver
// (§IV-B) and keylog.Detector (§V-C) consume chunks of any size and are
// also what covert.Demodulate and keylog.Detect run, with the whole
// capture as one chunk. This package moves chunks to them and keeps
// them alive:
//
//   - Ring is the chunked ring-buffer source that feeds a processor from
//     another goroutine with bounded buffering and blocking
//     backpressure;
//   - Daemon multiplexes many Ring→processor streams over a fixed worker
//     pool, with panic quarantine, admission control and load shedding
//     (daemon.go), and supervised sources with stall retry and restart
//     (supervise.go);
//   - CovertReceiver and KeylogDetector wrap the two processors with
//     EMCK checkpoint/restore (checkpoint.go), so a killed daemon
//     resumes byte-identically.
//
// The memory contract is the processors': a covert.Receiver holds its
// 1024-point PSD plus n/8 decimated samples instead of the 16 n bytes
// of raw IQ, and a keylog.Detector holds O(TrackBlock·rate + n/fftSize).
package stream

import (
	"fmt"
	"sync"
)

// Ring is a bounded FIFO of sample chunks — the hand-off buffer between
// a capture producer and a stream processor. Push blocks while the ring
// is full (backpressure: a slow consumer throttles its producer instead
// of buffering unboundedly) and Pop blocks while it is empty. Close
// wakes everyone: pushes to a closed ring are refused, pops drain the
// remaining chunks and then report done. Safe for any number of
// producers and consumers.
type Ring struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	slots    [][]complex128
	head     int // index of the oldest chunk
	count    int
	closed   bool
	stalls   uint64 // pushes that had to wait on a full ring
}

// NewRing returns a ring holding at most capacity chunks.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic(fmt.Sprintf("stream: Ring capacity %d must be >= 1", capacity))
	}
	r := &Ring{slots: make([][]complex128, capacity)}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

// Push appends a chunk, blocking while the ring is full. It reports
// false — and discards the chunk — when the ring is (or becomes)
// closed. The ring keeps the slice; the producer must not reuse it
// until the consumer is done with it.
func (r *Ring) Push(chunk []complex128) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == len(r.slots) && !r.closed {
		r.stalls++
	}
	for r.count == len(r.slots) && !r.closed {
		r.notFull.Wait()
	}
	if r.closed {
		return false
	}
	r.slots[(r.head+r.count)%len(r.slots)] = chunk
	r.count++
	r.notEmpty.Signal()
	return true
}

// Offer is Push under an explicit overload policy. With ShedBlock it is
// exactly Push. With ShedNewest a full ring discards the offered chunk;
// with ShedOldest it evicts the oldest buffered chunk to make room —
// either way the producer never blocks. ok reports whether the ring is
// still open (mirroring Push's return); shed counts chunks discarded by
// this call (0 or 1).
func (r *Ring) Offer(chunk []complex128, policy ShedPolicy) (ok bool, shed int) {
	if policy == ShedBlock {
		return r.Push(chunk), 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, 0
	}
	if r.count == len(r.slots) {
		switch policy {
		case ShedNewest:
			return true, 1
		case ShedOldest:
			r.slots[r.head] = nil
			r.head = (r.head + 1) % len(r.slots)
			r.count--
			shed = 1
		}
	}
	r.slots[(r.head+r.count)%len(r.slots)] = chunk
	r.count++
	r.notEmpty.Signal()
	return true, shed
}

// Pop removes the oldest chunk, blocking while the ring is empty. ok is
// false once the ring is closed and fully drained.
func (r *Ring) Pop() (chunk []complex128, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.count == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	return r.popLocked()
}

// TryPop is Pop without blocking: ok is false when the ring is empty
// (drained or not). The daemon's workers use it so an empty ring parks
// the stream instead of a worker.
func (r *Ring) TryPop() (chunk []complex128, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.popLocked()
}

func (r *Ring) popLocked() ([]complex128, bool) {
	if r.count == 0 {
		return nil, false
	}
	chunk := r.slots[r.head]
	r.slots[r.head] = nil
	r.head = (r.head + 1) % len(r.slots)
	r.count--
	r.notFull.Signal()
	return chunk, true
}

// Close refuses further pushes and lets pops drain what remains.
// Idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

// Abort closes the ring AND discards everything still buffered,
// returning the discarded chunk count. This is the quarantine path's
// unblock-everyone hammer: a producer blocked in Push against a full
// ring wakes immediately and sees the refusal, instead of waiting
// forever on a consumer that will never pop again (the goroutine leak
// the abandoned-stream regression test pins). Idempotent; an Abort
// after Close just drops the leftovers.
func (r *Ring) Abort() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	n := r.count
	for i := 0; i < n; i++ {
		r.slots[(r.head+i)%len(r.slots)] = nil
	}
	r.head, r.count = 0, 0
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	return n
}

// Len returns the number of buffered chunks.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Drained reports whether the ring is closed and empty — the stream's
// end-of-input condition.
func (r *Ring) Drained() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed && r.count == 0
}

// Stalls returns how many pushes found the ring full and had to wait —
// the backpressure event count.
func (r *Ring) Stalls() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stalls
}

// Chunks slices iq into consecutive chunks of the given size (the last
// one shorter when the length is not a multiple). The chunks alias iq.
// size larger than the signal yields a single chunk; size must be
// positive.
func Chunks(iq []complex128, size int) [][]complex128 {
	if size < 1 {
		panic(fmt.Sprintf("stream: chunk size %d must be >= 1", size))
	}
	out := make([][]complex128, 0, (len(iq)+size-1)/size)
	for lo := 0; lo < len(iq); lo += size {
		hi := lo + size
		if hi > len(iq) {
			hi = len(iq)
		}
		out = append(out, iq[lo:hi])
	}
	return out
}
