package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pmuleak/internal/keylog"
	"pmuleak/internal/stream"
	"pmuleak/internal/xrand"
)

func TestTailKeepsTenBeyond(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	v, pct, ok := s.tail(10)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	if _, _, ok := s[:10].tail(10); ok {
		t.Fatal("ten samples have no value with ten beyond it")
	}
	v, pct, ok = sample{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11}.tail(10)
	if !ok || v != 1 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want the minimum", v, pct, ok)
	}
	if m := (sample{4, 1, 3, 2}).median(); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "em", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "sdr", Parent: 0, Start: ms(30), End: ms(60)}, // overlaps em by 10
		{Name: "inner", Parent: 1, Start: ms(15), End: ms(25)},
		{Name: "late", Parent: 0, Start: ms(90), End: ms(120)}, // runs past its parent
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 10), ms(30), ms(10), ms(30)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	tr := &tracer{spans: spans}
	if b := tr.busy(); b["op"] != ms(40) || b["em"] != ms(20) {
		t.Fatalf("busy = %v", b)
	}
}

// stallRx is a receiver whose first Push blocks until released.
type stallRx struct{ release chan struct{} }

func (r *stallRx) Push([]complex128) {
	if r.release != nil {
		<-r.release
		r.release = nil
	}
}
func (r *stallRx) StateBytes() int { return 0 }
func (r *stallRx) finalize() any   { return "done" }

func TestDueTimeLatencyBehindStalledProcessor(t *testing.T) {
	// 20 chunks due 1 ms apart; the processor stalls on the first for
	// 100 ms. The ring (queueChunks) fills and the generator blocks, so
	// later chunks are pushed late: their latency must count from when
	// they were due, not from when they were sent.
	const n, stall = 20, 100 * time.Millisecond
	e := &poolEntry{iq: make([]complex128, n*chunkSamples), rate: float64(chunkSamples) * 1000}
	s := newSession("stalled", e, 0)
	release := make(chan struct{})
	s.open = func() (receiver, error) { return &stallRx{release: release}, nil }
	time.AfterFunc(stall, func() { close(release) })

	d := stream.NewDaemon(1)
	start := time.Now()
	lag := drive(d, openLoopEvents([]*session{s}), func() time.Duration { return time.Since(start) })
	d.Drain()

	if s.err != nil || !s.finished || s.result != digest("done") {
		t.Fatalf("session err %v, finished %v", s.err, s.finished)
	}
	last := n - 1
	if lat := s.done[last] - s.due[last]; lat < stall-s.due[last] {
		t.Fatalf("last chunk latency %v, want at least %v", lat, stall-s.due[last])
	}
	// Once the ring is full the generator cannot push until the stall
	// ends, so it runs most of the stall behind its plan.
	if lag < stall/2 {
		t.Fatalf("generator lag %v, want most of %v", lag, stall)
	}
	f := summarize([]*session{s}, time.Duration(n)*time.Millisecond)
	if f.backlogEnd != n || len(f.wait) != n {
		t.Fatalf("backlog at window end %d of %d chunks, want all", f.backlogEnd, n)
	}
}

func TestSameSeedSameOps(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		if !reflect.DeepEqual(covertRound(seed, 3), covertRound(seed, 3)) {
			t.Fatalf("covert round differs at seed %d", seed)
		}
		if !reflect.DeepEqual(keylogRound(seed, 3), keylogRound(seed, 3)) {
			t.Fatalf("keylog round differs at seed %d", seed)
		}
		if !reflect.DeepEqual(daemonPool(seed), daemonPool(seed)) {
			t.Fatalf("daemon pool differs at seed %d", seed)
		}
	}
	if reflect.DeepEqual(covertRound(1, 0), covertRound(2, 0)) || reflect.DeepEqual(keylogRound(1, 0), keylogRound(2, 0)) ||
		reflect.DeepEqual(daemonPool(1), daemonPool(2)) {
		t.Fatal("different seeds gave the same round")
	}

	pool := []*poolEntry{
		{cov: &covertOp{}, iq: make([]complex128, 150_000), rate: 2.4e6},
		{key: &keylogOp{}, iq: make([]complex128, 900_000), rate: 240e3},
	}
	arrivals := func(seed int64) []time.Duration {
		var dues []time.Duration
		for _, s := range openLoopSessions(seed, 2*time.Second, pool) {
			dues = append(dues, s.due...)
		}
		return dues
	}
	if a := arrivals(3); len(a) == 0 || !reflect.DeepEqual(a, arrivals(3)) || reflect.DeepEqual(a, arrivals(4)) {
		t.Fatal("open-loop schedule is not a function of the seed")
	}
}

func TestRoundShares(t *testing.T) {
	ops := covertRound(5, 0)
	var variants, faulted int
	for _, op := range ops {
		if !op.fresh {
			variants++
		}
		if op.cfg.Faults.Enabled() {
			faulted++
		}
		if op.cfg.Code != pinnedCode || op.cfg.PayloadBits == 0 {
			t.Fatalf("op %s does not pin Code and PayloadBits", op.describe())
		}
	}
	if len(ops) != 22 || variants != 4 || faulted != 7 {
		t.Fatalf("covert round: %d ops, %d variants, %d faulted; want 22, 4, 7", len(ops), variants, faulted)
	}
	for _, op := range keylogRound(5, 0) {
		if op.cfg.Words == 0 {
			t.Fatalf("op %s does not pin Words", op.describe())
		}
		text := op.cfg.Text
		if text == "" {
			text = keylog.RandomWords(op.cfg.Words, xrand.New(op.tb.Seed+wordsSeedOffset))
		}
		if len(text) != textLen(op.cfg.Words) {
			t.Fatalf("op %s types %d characters, want %d", op.describe(), len(text), textLen(op.cfg.Words))
		}
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	type inner struct {
		F []float64
		B []byte
	}
	type outer struct {
		N   int
		P   *inner
		Opt *inner
		S   string
	}
	a := outer{N: 1, P: &inner{F: []float64{1, 2}, B: []byte{3}}, S: "x"}
	b := outer{N: 1, P: &inner{F: []float64{1, 2}, B: []byte{3}}, S: "x"}
	if digest(a) != digest(b) {
		t.Fatal("equal values digest differently")
	}
	for _, change := range []func(*outer){
		func(o *outer) { o.N = 2 },
		func(o *outer) { o.P.F[1] = 2.0000001 },
		func(o *outer) { o.P.B = append(o.P.B, 0) },
		func(o *outer) { o.Opt = &inner{} },
		func(o *outer) { o.S = "y" },
	} {
		c := outer{N: 1, P: &inner{F: []float64{1, 2}, B: []byte{3}}, S: "x"}
		change(&c)
		if digest(c) == digest(a) {
			t.Fatalf("digest missed a change: %+v", c)
		}
	}
}

func TestClosedLoopPushesEveryChunkInOrder(t *testing.T) {
	var sessions []*session
	for i := 0; i < 11; i++ {
		e := &poolEntry{iq: make([]complex128, (i%4+1)*chunkSamples-7), rate: 1}
		sessions = append(sessions, newSession("s", e, 0))
	}
	next := map[*session]int{}
	for _, ev := range closedLoopEvents(sessions) {
		if ev.chunk != next[ev.s] {
			t.Fatalf("chunk %d pushed before %d", ev.chunk, next[ev.s])
		}
		next[ev.s]++
	}
	for _, s := range sessions {
		if next[s] != len(s.chunks) {
			t.Fatalf("pushed %d of %d chunks", next[s], len(s.chunks))
		}
	}
}

func TestStealClockSubtractsSteal(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	c := &stealClock{
		at:    []time.Time{t0, t0.Add(ms(100)), t0.Add(ms(200))},
		steal: []time.Duration{ms(50), ms(50), ms(90)}, // 40 ms stolen in the second 100 ms
	}
	if got := c.ran(t0, t0.Add(ms(100))); got != ms(100) {
		t.Fatalf("no steal: ran %v, want 100ms", got)
	}
	if got := c.ran(t0.Add(ms(100)), t0.Add(ms(150))); got != ms(30) {
		t.Fatalf("half the stolen interval: ran %v, want 30ms", got)
	}
	if got := c.stolen(t0, t0.Add(ms(200))); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("stolen share %v, want 0.2", got)
	}
	var none *stealClock
	if got := none.ran(t0, t0.Add(ms(7))); got != ms(7) {
		t.Fatalf("nil clock: ran %v, want wall time", got)
	}
}

// fixedOp is a batch op with a fixed outcome.
type fixedOp struct{ out outcome }

func (o fixedOp) run() outcome                                      { return o.out }
func (o fixedOp) runTraced(*tracer, int, int, *tracedState) outcome { return o.out }
func (o fixedOp) describe() string                                  { return "fixed" }

func TestAnchorMustMatchRecord(t *testing.T) {
	w := batchWorkload{
		round: func(int64, int) []batchOp {
			return []batchOp{fixedOp{outcome{txBits: 10, bitMatches: 7}}, fixedOp{outcome{keyTruth: 5, keyMatched: 5}}}
		},
		anchor: units{recovered: 12, total: 15},
	}
	rep := &report{}
	if _, err := runAnchor(w, rep, 2); err != nil || len(rep.problems) != 0 {
		t.Fatalf("matching anchor: err %v, problems %v", err, rep.problems)
	}
	for _, record := range []units{{11, 15}, {13, 15}, {12, 16}} {
		w.anchor, rep = record, &report{}
		if _, err := runAnchor(w, rep, 2); err != nil || len(rep.problems) != 2 {
			t.Fatalf("anchor recorded as %+v: problems %v, want one per repetition", record, rep.problems)
		}
	}
}
