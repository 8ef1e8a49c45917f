package stream_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
)

// panicProc panics on its nth Push — the chaos "worker kill" in
// miniature.
type panicProc struct {
	after int
	seen  int
}

func (p *panicProc) Push(c []complex128) {
	p.seen++
	if p.seen == p.after {
		panic(fmt.Sprintf("injected processor fault at chunk %d", p.seen))
	}
}

// recordProc records the first sample of every chunk; the first Push
// blocks on gate so the test can fill the ring behind a busy worker.
type recordProc struct {
	entered chan struct{}
	gate    chan struct{}
	vals    []float64
	gated   bool
}

func (p *recordProc) Push(c []complex128) {
	if !p.gated {
		p.gated = true
		p.entered <- struct{}{}
		<-p.gate
	}
	p.vals = append(p.vals, real(c[0]))
}

func chunkVal(v float64) []complex128 {
	c := make([]complex128, 4)
	for i := range c {
		c[i] = complex(v, 0)
	}
	return c
}

// TestPanicQuarantinesStreamNotWorker: a processor panic takes down
// its own stream — quarantined, Err set, Done closed, telemetry
// counted — while the single shared worker keeps serving the healthy
// stream untouched.
func TestPanicQuarantinesStreamNotWorker(t *testing.T) {
	panicsBefore := counter("stream.quarantine.panics")
	d := stream.NewDaemon(1)
	bad := attach(t, d, "quar_bad", &panicProc{after: 1}, 4)
	goodProc := &countProc{}
	good := attach(t, d, "quar_good", goodProc, 4)

	bad.Push(chunkVal(1))
	select {
	case <-bad.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("panicking stream never reached Done")
	}
	if !bad.Quarantined() {
		t.Fatal("panicking stream not quarantined")
	}
	if bad.Err() == nil {
		t.Fatal("quarantined stream has nil Err")
	}
	if bad.Push(chunkVal(2)) {
		t.Fatal("Push into a quarantined stream succeeded")
	}
	if got := counter("stream.quarantine.panics"); got != panicsBefore+1 {
		t.Fatalf("stream.quarantine.panics %d -> %d, want +1", panicsBefore, got)
	}
	if got := telemetry.Capture().Gauges["stream.daemon.quar_bad.quarantined"]; got != 1 {
		t.Fatalf("per-stream quarantined gauge = %d, want 1", got)
	}

	// The worker that recovered the panic must still drive other streams.
	for i := 0; i < 5; i++ {
		if !good.Push(chunkVal(float64(i))) {
			t.Fatalf("healthy stream refused chunk %d after sibling panic", i)
		}
	}
	good.Close()
	<-good.Done()
	if good.Quarantined() || goodProc.chunks != 5 {
		t.Fatalf("healthy stream damaged by sibling panic: quarantined=%v chunks=%d",
			good.Quarantined(), goodProc.chunks)
	}
	d.Drain()
}

// TestRingAbortUnblocksProducer is the satellite regression for the
// unbounded-blocking bug: a producer blocked in Push on a full ring
// must return (false) when the ring is aborted, not sleep forever on
// the condvar.
func TestRingAbortUnblocksProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	r := stream.NewRing(1)
	if !r.Push(chunkVal(0)) {
		t.Fatal("first push into empty ring refused")
	}
	got := make(chan bool, 1)
	go func() { got <- r.Push(chunkVal(1)) }() // blocks: ring full
	time.Sleep(20 * time.Millisecond)          // let it park on the condvar
	if n := r.Abort(); n != 1 {
		t.Fatalf("Abort discarded %d chunks, want 1", n)
	}
	select {
	case ok := <-got:
		if ok {
			t.Fatal("Push into an aborted ring reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after Abort — the unbounded-blocking bug")
	}
	if ok, _ := r.Offer(chunkVal(2), stream.ShedOldest); ok {
		t.Fatal("Offer into an aborted ring reported success")
	}
	waitNoLeak(t, before)
}

// gatePanicProc blocks its first chunk on gate, then panics — the
// worst case for a producer: the ring backs up behind a processor
// that then dies.
type gatePanicProc struct {
	entered chan struct{}
	gate    chan struct{}
}

func (p *gatePanicProc) Push(c []complex128) {
	p.entered <- struct{}{}
	<-p.gate
	panic("injected fault while ring backed up")
}

// TestQuarantineUnblocksBlockedProducer: the daemon-level version of
// the Abort regression — a producer stuck in backpressure behind a
// wedged stream is released with Push -> false the moment the
// processor panics, and the discarded backlog is counted.
func TestQuarantineUnblocksBlockedProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	droppedBefore := counter("stream.quarantine.dropped_chunks")
	d := stream.NewDaemon(1)
	proc := &gatePanicProc{entered: make(chan struct{}), gate: make(chan struct{})}
	s := attach(t, d, "quar_unblock", proc, 1)

	s.Push(chunkVal(0))
	<-proc.entered // worker is inside Push, holding chunk 0
	if !s.Push(chunkVal(1)) {
		t.Fatal("buffered push refused")
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- s.Push(chunkVal(2)) }() // ring full: blocks
	time.Sleep(20 * time.Millisecond)

	close(proc.gate) // processor panics -> quarantine -> ring abort
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("blocked Push into a quarantined stream reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after quarantine — the unbounded-blocking bug")
	}
	<-s.Done()
	if !s.Quarantined() {
		t.Fatal("stream not quarantined after processor panic")
	}
	if got := counter("stream.quarantine.dropped_chunks"); got != droppedBefore+1 {
		t.Fatalf("stream.quarantine.dropped_chunks %d -> %d, want +1 (the buffered chunk)",
			droppedBefore, got)
	}
	d.Drain()
	waitNoLeak(t, before)
}

// TestDrainRacesMidChunkPanic: Drain called concurrently with
// producers pushing into streams whose processors panic mid-chunk must
// terminate — no deadlock between quarantine, ring abort, and the
// drain barrier. Run under -race in CI.
func TestDrainRacesMidChunkPanic(t *testing.T) {
	d := stream.NewDaemon(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		s := attach(t, d, fmt.Sprintf("drace%d", i), &panicProc{after: 1 + i%3}, 2)
		wg.Add(1)
		go func(s *stream.DaemonStream) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				if !s.Push(chunkVal(float64(j))) {
					return
				}
			}
			s.Close()
		}(s)
	}
	done := make(chan struct{})
	go func() {
		d.Drain() // races the pushes above
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain deadlocked racing mid-chunk panics")
	}
	wg.Wait()
}

// TestAttachAdmissionLimit: WithMaxStreams refuses the N+1th stream
// with an error (counted as shed), and a slot freed by a finished
// stream is reusable.
func TestAttachAdmissionLimit(t *testing.T) {
	rejectedBefore := counter("stream.shed.attach_rejected")
	d := stream.NewDaemon(1, stream.WithMaxStreams(2))
	a, err := d.AttachE("adm0", &countProc{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AttachE("adm1", &countProc{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AttachE("adm2", &countProc{}, 2); err == nil {
		t.Fatal("third attach admitted past WithMaxStreams(2)")
	}
	if got := counter("stream.shed.attach_rejected"); got != rejectedBefore+1 {
		t.Fatalf("stream.shed.attach_rejected %d -> %d, want +1", rejectedBefore, got)
	}

	a.Close()
	<-a.Done()
	c, err := d.AttachE("adm2", &countProc{}, 2)
	if err != nil {
		t.Fatalf("attach after a slot freed: %v", err)
	}
	b.Close()
	c.Close()
	d.Drain()
}

// TestShedOldest: under ShedOldest a full ring evicts its oldest
// buffered chunk for each new arrival — the producer never blocks, the
// freshest window survives, and every eviction is counted globally and
// per stream.
func TestShedOldest(t *testing.T) {
	shedBefore := counter("stream.shed.chunks")
	d := stream.NewDaemon(1, stream.WithShedPolicy(stream.ShedOldest))
	proc := &recordProc{entered: make(chan struct{}), gate: make(chan struct{})}
	s := attach(t, d, "shed_old", proc, 2)

	s.Push(chunkVal(0))
	<-proc.entered // worker holds chunk 0; ring is empty
	for v := 1; v <= 4; v++ {
		doneCh := make(chan bool, 1)
		go func(v int) { doneCh <- s.Push(chunkVal(float64(v))) }(v)
		select {
		case ok := <-doneCh:
			if !ok {
				t.Fatalf("ShedOldest push %d refused", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ShedOldest push %d blocked — shedding must never backpressure", v)
		}
	}
	if s.Pending() != 2 {
		t.Fatalf("ring holds %d chunks, want 2 after eviction", s.Pending())
	}
	close(proc.gate)
	s.Close()
	<-s.Done()
	d.Drain()

	want := []float64{0, 3, 4} // 1 and 2 evicted by 3 and 4
	if len(proc.vals) != len(want) {
		t.Fatalf("processed %v, want %v", proc.vals, want)
	}
	for i, v := range want {
		if proc.vals[i] != v {
			t.Fatalf("processed %v, want %v", proc.vals, want)
		}
	}
	if got := counter("stream.shed.chunks"); got != shedBefore+2 {
		t.Fatalf("stream.shed.chunks %d -> %d, want +2", shedBefore, got)
	}
	if got := counter("stream.daemon.shed_old.shed"); got != 2 {
		t.Fatalf("per-stream shed counter = %d, want 2", got)
	}
}

// TestShedNewest: under ShedNewest a full ring drops the incoming
// chunk instead — the oldest buffered window survives.
func TestShedNewest(t *testing.T) {
	d := stream.NewDaemon(1, stream.WithShedPolicy(stream.ShedNewest))
	proc := &recordProc{entered: make(chan struct{}), gate: make(chan struct{})}
	s := attach(t, d, "shed_new", proc, 2)

	s.Push(chunkVal(0))
	<-proc.entered
	for v := 1; v <= 4; v++ {
		if !s.Push(chunkVal(float64(v))) {
			t.Fatalf("ShedNewest push %d refused", v)
		}
	}
	close(proc.gate)
	s.Close()
	<-s.Done()
	d.Drain()

	want := []float64{0, 1, 2} // 3 and 4 dropped on arrival
	if len(proc.vals) != len(want) {
		t.Fatalf("processed %v, want %v", proc.vals, want)
	}
	for i, v := range want {
		if proc.vals[i] != v {
			t.Fatalf("processed %v, want %v", proc.vals, want)
		}
	}
	if got := counter("stream.daemon.shed_new.shed"); got != 2 {
		t.Fatalf("per-stream shed counter = %d, want 2", got)
	}
}
