package stream_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pmuleak/internal/covert"
	"pmuleak/internal/keylog"
	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
)

// TestRingFIFO pins the ring's ordering and close semantics: chunks
// come out in push order, Close drains the remainder, and pushes after
// Close are refused.
func TestRingFIFO(t *testing.T) {
	r := stream.NewRing(3)
	chunks := make([][]complex128, 5)
	for i := range chunks {
		chunks[i] = make([]complex128, i+1)
	}
	for _, c := range chunks[:3] {
		if !r.Push(c) {
			t.Fatal("push to open ring refused")
		}
	}
	if got, _ := r.TryPop(); len(got) != 1 {
		t.Fatalf("first pop returned chunk of %d samples, want 1", len(got))
	}
	r.Push(chunks[3])
	r.Close()
	if r.Push(chunks[4]) {
		t.Fatal("push to closed ring accepted")
	}
	for want := 2; want <= 4; want++ {
		got, ok := r.Pop()
		if !ok || len(got) != want {
			t.Fatalf("pop = (%d samples, %v), want (%d, true)", len(got), ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from drained ring reported a chunk")
	}
	if !r.Drained() {
		t.Fatal("closed empty ring not drained")
	}
}

// TestRingBackpressure: a capacity-2 ring with a slow consumer makes
// the producer block — the stall counter proves pushes waited, and
// order still holds.
func TestRingBackpressure(t *testing.T) {
	r := stream.NewRing(2)
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			r.Push([]complex128{complex(float64(i), 0)})
		}
		r.Close()
	}()
	next := 0
	for {
		chunk, ok := r.Pop()
		if !ok {
			break
		}
		if got := int(real(chunk[0])); got != next {
			t.Fatalf("chunk %d arrived out of order (got %d)", next, got)
		}
		next++
		time.Sleep(200 * time.Microsecond)
	}
	if next != n {
		t.Fatalf("consumed %d chunks, want %d", next, n)
	}
	if r.Stalls() == 0 {
		t.Fatal("slow consumer never exerted backpressure (0 stalls)")
	}
}

// slowProc is a processor that lags its producer on purpose, to force
// queue buildup in the daemon backpressure test.
type slowProc struct {
	chunks int
	delay  time.Duration
}

func (p *slowProc) Push(chunk []complex128) {
	time.Sleep(p.delay)
	p.chunks++
}

// TestDaemonBackpressure: one slow stream behind a capacity-2 queue.
// The producer must hit the full ring (stalls recorded on the stream
// and its telemetry counter), yet every chunk still arrives, in order,
// exactly once.
func TestDaemonBackpressure(t *testing.T) {
	d := stream.NewDaemon(2)
	proc := &slowProc{delay: time.Millisecond}
	s := d.Attach("bp", proc, 2)
	const n = 24
	for i := 0; i < n; i++ {
		if !s.Push(make([]complex128, 8)) {
			t.Fatal("push to open stream refused")
		}
	}
	s.Close()
	d.Drain()
	if proc.chunks != n {
		t.Fatalf("processor saw %d chunks, want %d", proc.chunks, n)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d chunks still pending after drain", s.Pending())
	}
	if s.Stalls() == 0 {
		t.Fatal("producer never stalled against the capacity-2 queue")
	}
	snap := telemetry.Capture()
	if snap.Counters["stream.daemon.bp.stalls"] == 0 {
		t.Fatal("per-stream stall telemetry not recorded")
	}
	if got := snap.Counters["stream.daemon.bp.chunks"]; got != n {
		t.Fatalf("per-stream chunk telemetry = %d, want %d", got, n)
	}
}

// gatedProc blocks every Push until the gate opens and reports each
// entry, letting a test freeze the daemon's single worker at a known
// point.
type gatedProc struct {
	entered chan struct{}
	gate    chan struct{}
	chunks  int // worker-goroutine only (one stream = one worker)
}

func (p *gatedProc) Push(chunk []complex128) {
	p.entered <- struct{}{}
	<-p.gate
	p.chunks++
}

// TestDaemonQueueDepthAndLatency pins the introspection series added
// for the admin plane: the queue_depth gauge tracks the ring's
// buffered-chunk count at enqueue/dequeue (visible backpressure before
// any stall), and the per-stream chunk histogram records one latency
// observation per dispatched chunk.
func TestDaemonQueueDepthAndLatency(t *testing.T) {
	d := stream.NewDaemon(1)
	proc := &gatedProc{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	s := d.Attach("depth", proc, 8)

	s.Push(make([]complex128, 4))
	// The worker is now parked inside proc.Push with the ring empty, so
	// the next pushes accumulate depth with no concurrent dequeues.
	<-proc.entered
	for i := 0; i < 3; i++ {
		s.Push(make([]complex128, 4))
	}
	if got := telemetry.Capture().Gauges["stream.daemon.depth.queue_depth"]; got != 3 {
		t.Fatalf("queue_depth with 3 buffered chunks = %d, want 3", got)
	}

	close(proc.gate)
	s.Close()
	d.Drain()
	if proc.chunks != 4 {
		t.Fatalf("processor saw %d chunks, want 4", proc.chunks)
	}
	snap := telemetry.Capture()
	if got := snap.Gauges["stream.daemon.depth.queue_depth"]; got != 0 {
		t.Fatalf("queue_depth after drain = %d, want 0", got)
	}
	lat, ok := snap.Histograms["stream.daemon.depth.chunk"]
	if !ok || lat.Count != 4 {
		t.Fatalf("chunk latency histogram = (%v, count %d), want 4 observations", ok, lat.Count)
	}
	var bucketSum uint64
	for _, b := range lat.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != lat.Count {
		t.Fatalf("latency buckets sum to %d, want %d", bucketSum, lat.Count)
	}
}

// TestDaemonStreamsMatchBatch is the serve-mode identity check: eight
// concurrent streams — four covert receivers and four keylog detectors,
// fed the same captures at different chunk sizes by competing producer
// goroutines over a three-worker pool — all finalize to outputs
// DeepEqual to covert.Demodulate and keylog.Detect, the same processors
// fed the whole capture as one chunk. This is the same contract CI's
// daemon smoke job checks end-to-end through `emscope serve -verify`.
func TestDaemonStreamsMatchBatch(t *testing.T) {
	pc := prepCovert(t, true, 2)
	defer pc.Cap.Recycle()
	pk := prepKeylog(t, false, 2)
	defer pk.Cap.Recycle()
	batchC := covert.Demodulate(pc.Cap, pc.RXCfg)
	batchK := keylog.Detect(pk.Cap, pk.DetCfg)

	d := stream.NewDaemon(3)
	var wg sync.WaitGroup
	sizes := []int{1000, 4096, 12345, 1 << 20}

	covRX := make([]*stream.CovertReceiver, len(sizes))
	keyDet := make([]*stream.KeylogDetector, len(sizes))
	for i, size := range sizes {
		rx, err := stream.NewCovertReceiver(pc.RXCfg, pc.Cap.SampleRate, pc.Cap.CenterFreqHz)
		if err != nil {
			t.Fatalf("NewCovertReceiver: %v", err)
		}
		covRX[i] = rx
		sc := d.Attach(fmt.Sprintf("cov%d", i), rx, 4)
		det, err := stream.NewKeylogDetector(pk.DetCfg, pk.Cap.SampleRate, pk.Cap.CenterFreqHz)
		if err != nil {
			t.Fatalf("NewKeylogDetector: %v", err)
		}
		keyDet[i] = det
		sk := d.Attach(fmt.Sprintf("key%d", i), det, 4)

		wg.Add(2)
		go func(s *stream.DaemonStream, size int) {
			defer wg.Done()
			for _, chunk := range stream.Chunks(pc.Cap.IQ, size) {
				s.Push(chunk)
			}
			s.Close()
		}(sc, size)
		go func(s *stream.DaemonStream, size int) {
			defer wg.Done()
			for _, chunk := range stream.Chunks(pk.Cap.IQ, size) {
				s.Push(chunk)
			}
			s.Close()
		}(sk, size)
	}
	wg.Wait()
	d.Drain()

	for i, rx := range covRX {
		if got := rx.Finalize(); !reflect.DeepEqual(got, batchC) {
			t.Errorf("covert stream %d (chunk %d) diverged from batch: stream bits %v, batch bits %v",
				i, sizes[i], got.Bits, batchC.Bits)
		}
	}
	for i, det := range keyDet {
		if got := det.Finalize(); !reflect.DeepEqual(got, batchK) {
			t.Errorf("keylog stream %d (chunk %d) diverged from batch: %d keystrokes, want %d",
				i, sizes[i], len(got.Keystrokes), len(batchK.Keystrokes))
		}
	}
}

// TestDaemonFlatStreamMemory pins the serve-mode memory envelope in the
// style of TestFlatReducerMemory: per-stream processor state must stay
// far under the raw capture it replaces (the whole point of streaming —
// a receiver that buffered its input would hold 16 bytes per sample),
// must be identical across concurrent streams fed the same input, and
// doubling the stream count must scale total state linearly — no hidden
// per-chunk accumulation anywhere in the daemon path.
func TestDaemonFlatStreamMemory(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	rawBytes := 16 * len(p.Cap.IQ)

	run := func(streams int) (total int, per []int) {
		d := stream.NewDaemon(4)
		rxs := make([]*stream.CovertReceiver, streams)
		var wg sync.WaitGroup
		for i := range rxs {
			rx, err := stream.NewCovertReceiver(p.RXCfg, p.Cap.SampleRate, p.Cap.CenterFreqHz)
			if err != nil {
				t.Fatalf("NewCovertReceiver: %v", err)
			}
			rxs[i] = rx
			s := d.Attach(fmt.Sprintf("mem%d", i), rx, 4)
			wg.Add(1)
			go func(s *stream.DaemonStream) {
				defer wg.Done()
				for _, chunk := range stream.Chunks(p.Cap.IQ, 4096) {
					s.Push(chunk)
				}
				s.Close()
			}(s)
		}
		wg.Wait()
		d.Drain()
		per = make([]int, streams)
		for i, rx := range rxs {
			per[i] = rx.StateBytes()
			total += per[i]
		}
		return total, per
	}

	total8, per8 := run(8)
	for i, b := range per8 {
		if b != per8[0] {
			t.Fatalf("stream %d holds %d state bytes, stream 0 holds %d — identical inputs must leave identical state", i, b, per8[0])
		}
	}
	if per8[0] > rawBytes/4 {
		t.Fatalf("per-stream state %d bytes is not flat against the %d-byte raw capture it replaces", per8[0], rawBytes)
	}
	total16, _ := run(16)
	if lo, hi := 2*total8*9/10, 2*total8*11/10; total16 < lo || total16 > hi {
		t.Fatalf("16-stream state %d bytes vs 8-stream %d — total must scale linearly in streams (flat per stream)", total16, total8)
	}
}

// TestDaemonDrainNoGoroutineLeak: after Drain returns, every worker
// and producer goroutine is gone.
func TestDaemonDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	d := stream.NewDaemon(6)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		proc := &slowProc{delay: 50 * time.Microsecond}
		s := d.Attach(fmt.Sprintf("leak%d", i), proc, 2)
		wg.Add(1)
		go func(s *stream.DaemonStream) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				s.Push(make([]complex128, 16))
			}
			s.Close()
		}(s)
	}
	wg.Wait()
	d.Drain()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked through Drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonDoneSemantics: Done closes only after close-plus-drain, and
// a stream closed while empty finishes immediately.
func TestDaemonDoneSemantics(t *testing.T) {
	d := stream.NewDaemon(1)
	defer d.Drain()
	s := d.Attach("done", &slowProc{}, 2)
	select {
	case <-s.Done():
		t.Fatal("Done closed before the stream was closed")
	default:
	}
	s.Push(make([]complex128, 4))
	s.Close()
	select {
	case <-s.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done never closed after close-plus-drain")
	}
	empty := d.Attach("done_empty", &slowProc{}, 2)
	empty.Close()
	select {
	case <-empty.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("empty closed stream never reported done")
	}
}
