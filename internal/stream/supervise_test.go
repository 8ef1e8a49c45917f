package stream_test

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
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

// stallSource serves fixed chunks but sleeps (or blocks on a channel
// the test closes) before scheduled ones, or fails a scheduled one with
// an error. The maps are only touched from inside Next, which the
// supervisor never calls concurrently.
type stallSource struct {
	chunks  [][]complex128
	idx     int
	sleepAt map[int]time.Duration
	blockAt map[int]chan struct{}
	failAt  map[int]error
}

func (s *stallSource) Next() ([]complex128, error) {
	if s.idx >= len(s.chunks) {
		return nil, io.EOF
	}
	if err := s.failAt[s.idx]; err != nil {
		return nil, err
	}
	if d, ok := s.sleepAt[s.idx]; ok {
		delete(s.sleepAt, s.idx)
		time.Sleep(d)
	}
	if ch, ok := s.blockAt[s.idx]; ok {
		delete(s.blockAt, s.idx)
		<-ch
	}
	c := s.chunks[s.idx]
	s.idx++
	return c, nil
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
	sv, err := d.Supervise("sup_clean", rx, 4, stream.NewSliceSource(p.Cap.IQ, 12345), 2*time.Second)
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

// TestSuperviseSlowSourceWithinDeadline: a Next that is late but
// inside the stall deadline is absorbed — no quarantine, no stall
// counted, and every chunk delivered.
func TestSuperviseSlowSourceWithinDeadline(t *testing.T) {
	stallsBefore := counter("stream.quarantine.stalls")
	chunks := mkChunks(6, 32)
	src := &stallSource{chunks: chunks, sleepAt: map[int]time.Duration{2: 20 * time.Millisecond}}
	proc := &countProc{}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_slow", proc, 2, src, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	d.Drain()
	if sv.Quarantined() {
		t.Fatalf("a slow chunk within the deadline quarantined the stream: %v", sv.Err())
	}
	if proc.chunks != len(chunks) {
		t.Fatalf("processed %d chunks, want %d (a slow source must not drop data)", proc.chunks, len(chunks))
	}
	if got := counter("stream.quarantine.stalls"); got != stallsBefore {
		t.Fatalf("stream.quarantine.stalls %d -> %d, want unchanged", stallsBefore, got)
	}
}

// TestSuperviseGiveupQuarantines: a source that delivers nothing within
// the deadline is given up on — the stream is quarantined with the
// stall on Err and counted on stream.quarantine.stalls, Done closed (so
// Drain cannot hang) — and once the wedged Next returns, no goroutine
// survives.
func TestSuperviseGiveupQuarantines(t *testing.T) {
	before := runtime.NumGoroutine()
	stallsBefore := counter("stream.quarantine.stalls")
	release := make(chan struct{})
	src := &stallSource{chunks: mkChunks(4, 32), blockAt: map[int]chan struct{}{1: release}}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_giveup", &countProc{}, 2, src, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	if !sv.Quarantined() {
		t.Fatal("permanently stalled source was not quarantined")
	}
	if err := sv.Err(); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("quarantine cause = %v, want the stall", err)
	}
	if sv.Push(make([]complex128, 4)) {
		t.Fatal("Push into a quarantined stream succeeded")
	}
	if got := counter("stream.quarantine.stalls"); got != stallsBefore+1 {
		t.Fatalf("stream.quarantine.stalls %d -> %d, want +1", stallsBefore, got)
	}
	if got := telemetry.Capture().Gauges["stream.daemon.sup_giveup.quarantined"]; got != 1 {
		t.Fatalf("per-stream quarantined gauge = %d, want 1", got)
	}
	d.Drain()
	// Unblock the abandoned Next so its fetch goroutine can park its late
	// result and exit; then nothing must remain.
	close(release)
	waitNoLeak(t, before)
}

// TestSuperviseSourceErrorQuarantines: a non-EOF error from Next
// quarantines the stream like a stall, with the source's error as the
// cause, and no chunk after the failure is delivered.
func TestSuperviseSourceErrorQuarantines(t *testing.T) {
	stallsBefore := counter("stream.quarantine.stalls")
	errAcq := errors.New("acquisition failure")
	src := &stallSource{chunks: mkChunks(5, 32), failAt: map[int]error{3: errAcq}}
	proc := &countProc{}
	d := stream.NewDaemon(1)
	sv, err := d.Supervise("sup_err", proc, 2, src, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sv.Wait()
	d.Drain()
	if !sv.Quarantined() {
		t.Fatal("a failing source did not quarantine the stream")
	}
	if !errors.Is(sv.Err(), errAcq) {
		t.Fatalf("quarantine cause = %v, want the source's error", sv.Err())
	}
	if got := counter("stream.quarantine.stalls"); got != stallsBefore+1 {
		t.Fatalf("stream.quarantine.stalls %d -> %d, want +1", stallsBefore, got)
	}
	if proc.chunks > 3 {
		t.Fatalf("processed %d chunks, want at most the 3 before the failure", proc.chunks)
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
	sv, err := d.Supervise("sup_adm0", &countProc{}, 2, gate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Supervise("sup_adm1", &countProc{}, 2, stream.NewSliceSource(make([]complex128, 64), 16), 0); err == nil {
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
