package stream

import (
	"fmt"
	"sync"

	"pmuleak/internal/telemetry"
)

// Daemon-level telemetry. Per-stream series are registered dynamically
// under stream.daemon.<name>.* when a stream attaches. The shed and
// quarantine families are the degradation dashboard: a daemon under
// overload or fault pressure must show it here, never degrade silently.
var (
	daemonDispatches = telemetry.NewCounter("stream.daemon.dispatches")
	daemonActive     = telemetry.NewGauge("stream.daemon.active_streams")

	shedChunks = telemetry.NewCounter("stream.shed.chunks")
	shedAttach = telemetry.NewCounter("stream.shed.attach_rejected")

	quarPanics  = telemetry.NewCounter("stream.quarantine.panics")
	quarStalls  = telemetry.NewCounter("stream.quarantine.stalls")
	quarDropped = telemetry.NewCounter("stream.quarantine.dropped_chunks")
)

// drainBurst bounds how many chunks one dispatch feeds a stream before
// the worker re-queues it — the fairness knob that keeps one firehose
// stream from starving the rest of the pool.
const drainBurst = 4

// Processor consumes one stream's chunks in order. CovertReceiver and
// KeylogDetector implement it; the daemon guarantees Push is never
// called concurrently for the same stream, so processors need no
// locking of their own.
type Processor interface {
	Push(chunk []complex128)
}

// ShedPolicy is the overload policy for a stream's ring.
type ShedPolicy int

const (
	// ShedBlock is pure backpressure (the default): a producer pushing
	// into a full ring blocks until a worker drains it. Lossless, and
	// the only policy under which streamed output is guaranteed
	// byte-identical to batch.
	ShedBlock ShedPolicy = iota
	// ShedNewest discards the incoming chunk when the ring is full. The
	// producer never blocks; the freshest data is sacrificed first.
	ShedNewest
	// ShedOldest evicts the oldest buffered chunk to admit the new one.
	// The producer never blocks; the stalest data is sacrificed first.
	ShedOldest
)

// Daemon multiplexes many capture streams over a fixed worker pool —
// the dispatch core of `emscope serve`. Each attached stream owns a
// bounded Ring (backpressure: a producer outrunning the pool blocks on
// its own ring, never grows it) and is processed by at most one worker
// at a time: a stream is either idle, queued on the runnable list, or
// running, and only the transition through the daemon's lock moves it
// between states. Workers pull runnable streams FIFO, feed at most
// drainBurst chunks to the stream's processor, and re-queue it while
// its ring has more — so N streams share W workers fairly with
// per-stream FIFO order preserved.
//
// Supervision (this file plus supervise.go) keeps one stream's failure
// one stream's problem:
//
//   - a processor that panics, or a supervised source that stalls or
//     fails, is quarantined — its ring aborted so producers unblock,
//     its Done closed, the cause recorded — while the worker goroutine
//     survives to serve every other stream;
//   - checkpointing (WithCheckpoints) persists each Checkpointer
//     processor's compact state at burst boundaries, so a killed
//     process restores from disk and resumes byte-identically;
//   - admission (WithMaxStreams) and shedding (WithShedPolicy) bound
//     what an overloaded daemon accepts, with every rejection and drop
//     counted under stream.shed.*.
//
// Shutdown is a graceful drain: CloseAll (or per-stream Close) refuses
// new input, workers finish everything still buffered, each stream's
// Done channel closes when its ring is empty (or the stream is
// quarantined), and Drain returns once every worker goroutine has
// exited — the goroutine-leak test pins that nothing survives it.
type Daemon struct {
	mu       sync.Mutex
	cond     *sync.Cond
	runnable []*DaemonStream
	streams  []*DaemonStream
	active   int // attached streams not yet done (admission accounting)
	stopping bool
	wg       sync.WaitGroup

	maxStreams int
	shed       ShedPolicy
	ckptDir    string
	ckptEvery  int
}

// DaemonOption customizes a Daemon at construction.
type DaemonOption func(*Daemon)

// WithMaxStreams sets an admission limit: AttachE refuses new streams
// while this many are attached and unfinished (counted under
// stream.shed.attach_rejected). Zero (the default) means unlimited.
func WithMaxStreams(n int) DaemonOption {
	return func(d *Daemon) { d.maxStreams = n }
}

// WithShedPolicy sets the overload policy applied to every stream's
// ring. Anything but ShedBlock trades the byte-identity guarantee for
// bounded producer latency; every dropped chunk is counted under
// stream.shed.chunks and the per-stream shed counter, so the trade is
// visible.
func WithShedPolicy(p ShedPolicy) DaemonOption {
	return func(d *Daemon) { d.shed = p }
}

// WithCheckpoints persists each Checkpointer processor's state to
// dir/<name>.ckpt after every everyChunks processed chunks (minimum 1).
// Writes happen on the worker inside the stream's exclusive dispatch
// window, so the encoded state is always a consistent chunk-boundary
// cut. Write failures are counted on stream.checkpoint.errors, the one
// place they surface, and processing continues — losing checkpoint
// durability must not take down a healthy stream.
func WithCheckpoints(dir string, everyChunks int) DaemonOption {
	if everyChunks < 1 {
		everyChunks = 1
	}
	return func(d *Daemon) { d.ckptDir, d.ckptEvery = dir, everyChunks }
}

// DaemonStream is one attached capture stream: its ring, its processor,
// and its scheduling state (guarded by the daemon's lock).
type DaemonStream struct {
	name string
	d    *Daemon
	ring *Ring
	proc Processor
	ck   Checkpointer // non-nil when checkpointing applies to proc

	queued      bool
	running     bool
	quarantined bool
	err         error // quarantine cause
	done        chan struct{}
	sinceCkpt   int // chunks since the last checkpoint (worker-only)

	chunks  *telemetry.Counter
	samples *telemetry.Counter
	stalls  *telemetry.Counter
	shed    *telemetry.Counter
	// depth mirrors the ring's buffered-chunk count at every
	// enqueue/dequeue, so backpressure is visible on the admin plane
	// before pushes start stalling; latency times each processor Push in
	// the dispatch loop; quar flips to 1 while the stream is
	// quarantined, which is what /healthz lists as degraded.
	depth   *telemetry.Gauge
	quar    *telemetry.Gauge
	latency *telemetry.Histogram
}

// NewDaemon starts a pool of the given worker count (minimum 1).
func NewDaemon(workers int, opts ...DaemonOption) *Daemon {
	if workers < 1 {
		workers = 1
	}
	d := &Daemon{}
	for _, o := range opts {
		o(d)
	}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

// AttachE registers a stream: chunks pushed to the returned
// DaemonStream flow through a ring of queueCap chunks into proc on the
// worker pool. The name keys the stream's telemetry series
// (stream.daemon.<name>.*). A daemon at its WithMaxStreams limit
// refuses the stream with an error (counted under
// stream.shed.attach_rejected) instead of overcommitting the pool.
func (d *Daemon) AttachE(name string, proc Processor, queueCap int) (*DaemonStream, error) {
	d.mu.Lock()
	if d.maxStreams > 0 && d.active >= d.maxStreams {
		limit := d.maxStreams
		d.mu.Unlock()
		shedAttach.Inc()
		return nil, fmt.Errorf("stream: admission limit reached (%d active streams)", limit)
	}
	d.active++
	d.mu.Unlock()

	s := &DaemonStream{
		name:    name,
		d:       d,
		ring:    NewRing(queueCap),
		proc:    proc,
		done:    make(chan struct{}),
		chunks:  telemetry.NewCounter(fmt.Sprintf("stream.daemon.%s.chunks", name)),
		samples: telemetry.NewCounter(fmt.Sprintf("stream.daemon.%s.samples", name)),
		stalls:  telemetry.NewCounter(fmt.Sprintf("stream.daemon.%s.stalls", name)),
		shed:    telemetry.NewCounter(fmt.Sprintf("stream.daemon.%s.shed", name)),
		depth:   telemetry.NewGauge(fmt.Sprintf("stream.daemon.%s.queue_depth", name)),
		quar:    telemetry.NewGauge(fmt.Sprintf("stream.daemon.%s.quarantined", name)),
		latency: telemetry.NewHistogram(fmt.Sprintf("stream.daemon.%s.chunk", name)),
	}
	if d.ckptDir != "" {
		if ck, ok := proc.(Checkpointer); ok {
			s.ck = ck
		}
	}
	// A re-attached name reuses its telemetry series; the gauges must
	// restart at the new stream's state rather than a stale level.
	s.depth.Set(0)
	s.quar.Set(0)
	d.mu.Lock()
	d.streams = append(d.streams, s)
	d.mu.Unlock()
	daemonActive.Add(1)
	return s, nil
}

// Push hands a chunk to the stream. Under ShedBlock it blocks while the
// ring is full — the backpressure contract; under a shedding policy it
// never blocks and may discard a chunk instead (counted). It reports
// false once the stream is closed or quarantined. Multiple producers
// may push to one stream; chunk order is then their arrival order at
// the ring.
func (s *DaemonStream) Push(chunk []complex128) bool {
	before := s.ring.Stalls()
	ok, shed := s.ring.Offer(chunk, s.d.shed)
	if !ok {
		return false
	}
	if shed > 0 {
		shedChunks.Add(uint64(shed))
		s.shed.Add(uint64(shed))
	}
	if waited := s.ring.Stalls() - before; waited > 0 {
		s.stalls.Add(waited)
	}
	s.depth.Set(int64(s.ring.Len()))
	s.d.enqueue(s)
	return true
}

// Close marks the stream's end of input. Buffered chunks still drain;
// Done closes once they have.
func (s *DaemonStream) Close() {
	s.ring.Close()
	d := s.d
	d.mu.Lock()
	s.maybeFinishLocked()
	d.mu.Unlock()
}

// Done returns a channel closed when the stream will never be processed
// further: either it was closed and every buffered chunk handled, or it
// was quarantined. Quarantined reports which.
func (s *DaemonStream) Done() <-chan struct{} { return s.done }

// Pending returns the number of chunks buffered and not yet processed.
func (s *DaemonStream) Pending() int { return s.ring.Len() }

// Stalls returns how many pushes hit a full ring (backpressure events).
func (s *DaemonStream) Stalls() uint64 { return s.ring.Stalls() }

// Quarantined reports whether the stream was isolated after a processor
// panic or a stalled or failing source. A quarantined stream's Done is
// closed, its ring refuses pushes, and its processor must not be
// finalized — its state is mid-chunk garbage. Err returns the cause.
func (s *DaemonStream) Quarantined() bool {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	return s.quarantined
}

// Err returns why the stream was quarantined (nil while healthy).
func (s *DaemonStream) Err() error {
	s.d.mu.Lock()
	defer s.d.mu.Unlock()
	return s.err
}

// enqueue moves an idle stream with pending chunks onto the runnable
// list. Called after every push; a stream already queued, running, or
// quarantined is left alone (the running worker re-checks the ring
// before parking it).
func (d *Daemon) enqueue(s *DaemonStream) {
	d.mu.Lock()
	if !s.queued && !s.running && !s.quarantined && s.ring.Len() > 0 {
		s.queued = true
		d.runnable = append(d.runnable, s)
		d.cond.Signal()
	}
	d.mu.Unlock()
}

// finishLocked closes the stream's Done channel exactly once and
// settles the admission count. Caller holds d.mu.
func (s *DaemonStream) finishLocked() {
	select {
	case <-s.done:
	default:
		close(s.done)
		daemonActive.Add(-1)
		s.d.active--
	}
}

// maybeFinishLocked closes the stream's Done channel when its input is
// finished and nothing is queued or in flight. Caller holds d.mu.
func (s *DaemonStream) maybeFinishLocked() {
	if !s.running && !s.queued && s.ring.Drained() {
		s.finishLocked()
	}
}

// quarantine isolates a failing stream without touching its siblings or
// the worker pool: the ring is aborted (producers blocked in Push wake
// and see the refusal; buffered chunks are dropped and counted), the
// cause is recorded, the per-stream quarantined gauge flips for
// /healthz, and Done closes so Drain and waiters proceed. counter tells
// the failure classes apart: quarPanics for processor panics,
// quarStalls for sources that stalled past their deadline or failed.
func (d *Daemon) quarantine(s *DaemonStream, cause error, counter *telemetry.Counter) {
	if dropped := s.ring.Abort(); dropped > 0 {
		quarDropped.Add(uint64(dropped))
	}
	s.depth.Set(0)
	d.mu.Lock()
	if !s.quarantined {
		s.quarantined = true
		s.err = cause
		counter.Inc()
		s.quar.Set(1)
		s.finishLocked()
	}
	s.running = false
	s.queued = false
	d.mu.Unlock()
}

// runBurst feeds the stream up to drainBurst chunks inside the worker's
// exclusive window, converting a processor panic into a returned value
// instead of a dead worker.
func (d *Daemon) runBurst(s *DaemonStream) (panicked any, didPanic bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked, didPanic = r, true
		}
	}()
	for i := 0; i < drainBurst; i++ {
		chunk, ok := s.ring.TryPop()
		if !ok {
			break
		}
		s.depth.Set(int64(s.ring.Len()))
		span := s.latency.Start()
		s.proc.Push(chunk)
		span.End()
		s.chunks.Inc()
		s.samples.Add(uint64(len(chunk)))
		s.sinceCkpt++
		daemonDispatches.Inc()
	}
	return nil, false
}

// maybeCheckpoint persists the processor's state when the cadence says
// so. Runs on the worker while the stream is marked running, so the
// processor is quiescent and the encoded state is a chunk-boundary cut.
func (s *DaemonStream) maybeCheckpoint() {
	if s.ck == nil || s.sinceCkpt < s.d.ckptEvery {
		return
	}
	s.sinceCkpt = 0
	// WriteCheckpoint counts a failed write on stream.checkpoint.errors;
	// a failing checkpoint directory degrades durability, not
	// processing, so the stream goes on.
	_ = WriteCheckpoint(s.d.ckptDir, s.name, s.ck)
}

// worker is the dispatch loop: claim a runnable stream, feed it a
// bounded burst, hand it back. A panicking stream is quarantined right
// here and the loop continues — one poisoned stream must cost the pool
// one burst, not one worker.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.runnable) == 0 && !d.stopping {
			d.cond.Wait()
		}
		if len(d.runnable) == 0 {
			d.mu.Unlock()
			return
		}
		s := d.runnable[0]
		d.runnable = d.runnable[1:]
		s.queued = false
		s.running = true
		d.mu.Unlock()

		if p, didPanic := d.runBurst(s); didPanic {
			d.quarantine(s, fmt.Errorf("stream: processor panic: %v", p), quarPanics)
			continue
		}
		s.maybeCheckpoint()

		d.mu.Lock()
		s.running = false
		if s.ring.Len() > 0 {
			s.queued = true
			d.runnable = append(d.runnable, s)
			d.cond.Signal()
		} else {
			s.maybeFinishLocked()
		}
		d.mu.Unlock()
	}
}

// CloseAll closes every attached stream (idempotent per stream).
func (d *Daemon) CloseAll() {
	d.mu.Lock()
	streams := append([]*DaemonStream(nil), d.streams...)
	d.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
}

// Drain gracefully shuts the daemon down: closes every stream, waits
// for all buffered chunks to be processed (quarantined streams are
// already done — their buffers were dropped at quarantine), then stops
// the worker pool and waits for every worker goroutine to exit. After
// Drain the healthy processors hold their final state and can be
// finalized.
func (d *Daemon) Drain() {
	d.CloseAll()
	d.mu.Lock()
	streams := append([]*DaemonStream(nil), d.streams...)
	d.mu.Unlock()
	for _, s := range streams {
		<-s.done
	}
	d.mu.Lock()
	d.stopping = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}
