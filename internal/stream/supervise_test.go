package stream_test

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pmuleak/internal/covert"
	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
)

// waitNoLeak polls until the goroutine count returns to the baseline,
// failing after the deadline — the shared leak-check idiom.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func counter(name string) uint64 { return telemetry.Capture().Counters[name] }

// countProc counts chunks and samples; reads are safe after the
// stream's Done (the daemon guarantees no concurrent Push).
type countProc struct {
	chunks  int
	samples int
}

func (p *countProc) Push(c []complex128) { p.chunks++; p.samples += len(c) }

func TestSliceSource(t *testing.T) {
	iq := make([]complex128, 10)
	for i := range iq {
		iq[i] = complex(float64(i), 0)
	}
	src := stream.NewSliceSource(iq, 4)
	var got []complex128
	sizes := []int{}
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		sizes = append(sizes, len(c))
		got = append(got, c...)
	}
	if !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
		t.Fatalf("chunk sizes = %v, want [4 4 2]", sizes)
	}
	if !reflect.DeepEqual(got, iq) {
		t.Fatalf("concatenated chunks differ from the source slice")
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("Next past EOF = %v, want io.EOF", err)
	}
}

// stallSource serves fixed chunks but sleeps (or blocks on a channel)
// before scheduled ones, and optionally fails some with a transient
// error. A blocked Next is released either by closing its channel from
// the test, or — when restartable — by Restart closing the kick
// channel (maps are only ever touched from inside Next, which the
// supervisor serializes, so there is no shared-map race with Restart).
type stallSource struct {
	chunks      [][]complex128
	idx         int
	sleepAt     map[int]time.Duration
	blockAt     map[int]chan struct{}
	errAt       map[int]int // index -> remaining transient failures
	restartable bool
	kick        chan struct{} // closed by a successful Restart
	restarts    int           // written in the pump, read after Wait
}

func (s *stallSource) Next() ([]complex128, error) {
	if s.idx >= len(s.chunks) {
		return nil, io.EOF
	}
	if n := s.errAt[s.idx]; n > 0 {
		s.errAt[s.idx] = n - 1
		return nil, errors.New("transient acquisition failure")
	}
	if d, ok := s.sleepAt[s.idx]; ok {
		delete(s.sleepAt, s.idx)
		time.Sleep(d)
	}
	if ch, ok := s.blockAt[s.idx]; ok {
		delete(s.blockAt, s.idx)
		select {
		case <-ch:
		case <-s.kick: // nil when not restartable: blocks forever
		}
	}
	c := s.chunks[s.idx]
	s.idx++
	return c, nil
}

func (s *stallSource) Restart() error {
	if !s.restartable {
		return errors.New("no re-acquisition available")
	}
	s.restarts++
	close(s.kick)
	return nil
}

func mkChunks(n, size int) [][]complex128 {
	out := make([][]complex128, n)
	for i := range out {
		c := make([]complex128, size)
		for j := range c {
			c[j] = complex(float64(i), float64(j))
		}
		out[i] = c
	}
	return out
}

// TestSuperviseCleanRunMatchesBatch: the supervision plumbing (pump
// goroutine, watchdog timers, SliceSource) is transparent — a clean
// supervised covert stream finalizes byte-identical to batch.
func TestSuperviseCleanRunMatchesBatch(t *testing.T) {
	p := prepCovert(t, false, 1)
	defer p.Cap.Recycle()
	batch := covert.Demodulate(p.Cap, p.RXCfg)
	d := stream.NewDaemon(2)
	rx := freshCovert(t, p.RXCfg, p.Cap)
	sv, err := d.Supervise("sup_clean", rx, 4, stream.NewSliceSource(p.Cap.IQ, 12345), stream.SuperviseConfig{
		StallDeadline: 2 * time.Second,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	sv.Wait()
	if sv.Quarantined() {
		t.Fatalf("clean run quarantined: %v", sv.Err())
	}
	d.Drain()
	if got := rx.Finalize(); !reflect.DeepEqual(got, batch) {
		t.Fatal("supervised stream diverged from batch")
	}
}

// TestSuperviseStallRetryRecovers: a source stall longer than the
// deadline but shorter than the retry budget is absorbed — retries are
// counted, the chunk eventually arrives, and the stream completes with
// every chunk intact.
func TestSuperviseStallRetryRecovers(t *testing.T) {
	attemptsBefore := counter("stream.retry.attempts")
	chunks := mkChunks(6, 32)
	src := &stallSource{chunks: chunks, sleepAt: map[int]time.Duration{2: 80 * time.Millisecond}}
	proc := &countProc{}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_stall", proc, 2, src, stream.SuperviseConfig{
		StallDeadline: 15 * time.Millisecond,
		MaxRetries:    10,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	d.Drain()
	if sv.Quarantined() {
		t.Fatalf("recoverable stall quarantined the stream: %v", sv.Err())
	}
	if proc.chunks != len(chunks) {
		t.Fatalf("processed %d chunks, want %d (stall must not drop data)", proc.chunks, len(chunks))
	}
	if got := counter("stream.retry.attempts"); got <= attemptsBefore {
		t.Fatalf("stream.retry.attempts did not advance (%d -> %d)", attemptsBefore, got)
	}
	if got := counter("stream.daemon.sup_stall.retries"); got == 0 {
		t.Fatal("per-stream retries counter is zero after a stall")
	}
}

// TestSuperviseRestartEscalation: a stall that outlives the whole retry
// budget escalates to Restarter.Restart — the carrier re-acquisition
// analogue — which unblocks the source; the stream then completes with
// a refilled budget and no quarantine.
func TestSuperviseRestartEscalation(t *testing.T) {
	restartsBefore := counter("stream.retry.restarts")
	chunks := mkChunks(5, 32)
	src := &stallSource{
		chunks:      chunks,
		blockAt:     map[int]chan struct{}{1: make(chan struct{})},
		restartable: true,
		kick:        make(chan struct{}),
	}
	proc := &countProc{}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_restart", proc, 2, src, stream.SuperviseConfig{
		StallDeadline: 10 * time.Millisecond,
		MaxRetries:    2,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	d.Drain()
	if sv.Quarantined() {
		t.Fatalf("restartable stall quarantined the stream: %v", sv.Err())
	}
	if src.restarts != 1 {
		t.Fatalf("source restarted %d times, want exactly 1", src.restarts)
	}
	if proc.chunks != len(chunks) {
		t.Fatalf("processed %d chunks, want %d", proc.chunks, len(chunks))
	}
	if got := counter("stream.retry.restarts"); got != restartsBefore+1 {
		t.Fatalf("stream.retry.restarts %d -> %d, want +1", restartsBefore, got)
	}
}

// TestSuperviseGiveupQuarantines: a source that never recovers and has
// no restart path is given up on — the stream is quarantined with the
// cause on Err, the giveup counted, Done closed (so Drain cannot hang)
// — and once the wedged Next returns, no goroutine survives.
func TestSuperviseGiveupQuarantines(t *testing.T) {
	before := runtime.NumGoroutine()
	giveupsBefore := counter("stream.retry.giveups")
	release := make(chan struct{})
	src := &stallSource{chunks: mkChunks(4, 32), blockAt: map[int]chan struct{}{1: release}}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_giveup", &countProc{}, 2, src, stream.SuperviseConfig{
		StallDeadline: 10 * time.Millisecond,
		MaxRetries:    2,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	if !sv.Quarantined() {
		t.Fatal("permanently stalled source was not quarantined")
	}
	if sv.Err() == nil {
		t.Fatal("quarantined stream has nil Err")
	}
	if sv.Push(make([]complex128, 4)) {
		t.Fatal("Push into a quarantined stream succeeded")
	}
	if got := counter("stream.retry.giveups"); got != giveupsBefore+1 {
		t.Fatalf("stream.retry.giveups %d -> %d, want +1", giveupsBefore, got)
	}
	if got := telemetry.Capture().Gauges["stream.daemon.sup_giveup.quarantined"]; got != 1 {
		t.Fatalf("per-stream quarantined gauge = %d, want 1", got)
	}
	d.Drain()
	// Unblock the abandoned Next so its watchdog goroutine can park its
	// late result and exit; then nothing must remain.
	close(release)
	waitNoLeak(t, before)
}

// TestSuperviseTransientSourceErrors: non-EOF errors from Next retry
// like stalls and succeed once the source recovers — no data lost, no
// quarantine.
func TestSuperviseTransientSourceErrors(t *testing.T) {
	chunks := mkChunks(5, 32)
	src := &stallSource{chunks: chunks, errAt: map[int]int{0: 2, 3: 1}}
	proc := &countProc{}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_err", proc, 2, src, stream.SuperviseConfig{
		StallDeadline: time.Second,
		MaxRetries:    5,
		BackoffBase:   time.Millisecond,
		BackoffMax:    2 * time.Millisecond,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	d.Drain()
	if sv.Quarantined() {
		t.Fatalf("transient errors quarantined the stream: %v", sv.Err())
	}
	if proc.chunks != len(chunks) {
		t.Fatalf("processed %d chunks, want %d", proc.chunks, len(chunks))
	}
}

// TestSuperviseAdmission: Supervise goes through the same admission
// control as AttachE.
func TestSuperviseAdmission(t *testing.T) {
	d := stream.NewDaemon(1, stream.WithMaxStreams(1))
	// The first stream's source holds it open until the refusal has been
	// checked: a source that could drain first would release the only
	// admission slot and let the second stream in.
	gate := &gateSource{release: make(chan struct{})}
	sv, err := d.Supervise("sup_adm0", &countProc{}, 2, gate, stream.SuperviseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Supervise("sup_adm1", &countProc{}, 2, stream.NewSliceSource(make([]complex128, 64), 16), stream.SuperviseConfig{}); err == nil {
		t.Fatal("Supervise ignored the admission limit")
	}
	close(gate.release)
	sv.Wait()
	d.Drain()
}

// gateSource serves one chunk, then blocks in Next until release is
// closed, then ends the capture.
type gateSource struct {
	release chan struct{}
	served  bool
}

func (s *gateSource) Next() ([]complex128, error) {
	if !s.served {
		s.served = true
		return make([]complex128, 16), nil
	}
	<-s.release
	return nil, io.EOF
}
