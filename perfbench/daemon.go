package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/keylog"
	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// Parameters of the daemon phases that covert-transfer's traced run
// streams for the stream layer's per-layer metrics. They were the
// daemon-realtime workload's, which is not in BENCHMARK.json (see
// WORKLOADS.md).
const (
	chunkSamples = 65536 // emscope serve's -chunk default
	queueChunks  = 8     // emscope serve's -queue default
	// offeredMsps is the open-loop offered load in Msamples/s: about a
	// quarter of the closed-loop drain rate of this session mix when the
	// benchmark was written (25-33 Msamples/s on 2 shared vCPUs).
	offeredMsps = 7.5
	// deckCovert is how many times each covert capture appears in the
	// open loop's arrival deck, against once for each keystroke capture:
	// 94% of arrivals are covert transfers, which then make about three
	// quarters of all chunks.
	deckCovert = 4
	// openShare is the share of --seconds over which sessions arrive.
	openShare = 0.5
	// The closed-loop phase streams the whole pool drainPasses times,
	// drainSlots sessions at a time (emscope serve's -streams 8 smoke
	// shape).
	drainPasses = 20
	drainSlots  = 8
	// keylogPoolWords is the length of the pool's keystroke sessions.
	keylogPoolWords = 3
)

// daemonPayloads are the covert pool's payload sizes, crossed with the
// Linux and macOS laptops; emscope serve streams 48-bit transfers. The
// Windows timing model stretches a transfer to 0.2-0.4 s of capture whose
// Finalize takes 0.1-0.5 s, too long for the short sessions the phases
// stream.
var daemonPayloads = []int{48, 96}

// poolEntry is one prepared capture the daemon phases stream, possibly
// many times, each time into a fresh receiver.
type poolEntry struct {
	cov *covertOp
	key *keylogOp
	pc  *core.PreparedCovert
	pk  *core.PreparedKeylog
	iq  []complex128
	// rate is the capture's native sample rate: sessions stream in real
	// time at it in the open loop.
	rate float64
}

// receiver is a stream processor the benchmark can finalize.
type receiver interface {
	Push(chunk []complex128)
	StateBytes() int
	finalize() any
}

type covertRx struct{ *stream.CovertReceiver }

func (r covertRx) finalize() any { return r.Finalize() }

type keylogRx struct{ *stream.KeylogDetector }

func (r keylogRx) finalize() any { return r.Finalize() }

// daemonPool generates the pool's ops: the Linux and macOS laptops at
// both payload sizes, and a short keystroke session on the first laptop
// of each of those families.
func daemonPool(seed int64) []*poolEntry {
	var pool []*poolEntry
	fams := families()[:2] // Linux, macOS
	for _, fam := range fams {
		for _, p := range fam {
			for _, bits := range daemonPayloads {
				pool = append(pool, &poolEntry{cov: &covertOp{
					fresh: true, shape: "table2", model: p.Model,
					tb:     testbed(p, opSeed(seed, 0, len(pool))),
					cfg:    core.CovertConfig{SleepPeriod: p.DefaultSleepPeriod, PayloadBits: bits, Code: pinnedCode},
					detail: fmt.Sprintf("%d bits coil@10cm", bits),
				}})
			}
		}
	}
	for k, fam := range fams {
		p := fam[0]
		pool = append(pool, &poolEntry{key: &keylogOp{
			shape: "table4-10cm", model: p.Model,
			tb:     testbed(p, opSeed(seed, 1, k)),
			cfg:    core.KeylogConfig{Words: keylogPoolWords},
			detail: fmt.Sprintf("%d words coil@10cm", keylogPoolWords),
		}})
	}
	return pool
}

// prepare synthesizes the entry's capture through core.
func (e *poolEntry) prepare() {
	if e.cov != nil {
		e.pc = e.cov.tb.PrepareCovert(e.cov.cfg)
		e.iq, e.rate = e.pc.Cap.IQ, e.pc.Cap.SampleRate
		return
	}
	e.pk = e.key.tb.PrepareKeylog(e.key.cfg)
	e.iq, e.rate = e.pk.Cap.IQ, e.pk.Cap.SampleRate
}

// open builds a fresh stream receiver configured as core configures the
// batch receiver for this capture.
func (e *poolEntry) open() (receiver, error) {
	if e.pc != nil {
		rx, err := stream.NewCovertReceiver(e.pc.RXCfg, e.pc.Cap.SampleRate, e.pc.Cap.CenterFreqHz)
		return covertRx{rx}, err
	}
	kd, err := stream.NewKeylogDetector(e.pk.DetCfg, e.pk.Cap.SampleRate, e.pk.Cap.CenterFreqHz)
	return keylogRx{kd}, err
}

// batch runs the batch pipeline core's Run* would use on the capture.
func (e *poolEntry) batch() any {
	if e.pc != nil {
		return covert.Demodulate(e.pc.Cap, e.pc.RXCfg)
	}
	return keylog.Detect(e.pk.Cap, e.pk.DetCfg)
}

// score scores a result against the entry's ground truth.
func (e *poolEntry) score(result any) outcome {
	if e.pc != nil {
		m := e.pc.Finish(result.(*covert.Demod)).Measurement
		return outcome{txBits: m.TxLen, bitErrs: m.Substitutions, bitMatches: m.Matches}
	}
	c := e.pk.Finish(result.(*keylog.Detection)).Char
	return outcome{keyTruth: c.Truth, keyMatched: c.Matched}
}

// session is one stream: a capture's chunks, when each is due, and when
// the daemon processed it.
type session struct {
	name    string
	entry   *poolEntry
	open    func() (receiver, error)
	chunks  [][]complex128
	due     []time.Duration
	started []time.Duration // written by the daemon worker
	done    []time.Duration // written by the daemon worker

	rx       receiver
	ds       *stream.DaemonStream
	err      error // attach refused or stream quarantined
	stalls   uint64
	state    int // receiver state bytes before Finalize
	finished bool
	result   uint64 // digest of the Finalize output
	finStart time.Duration
	resultAt time.Duration
}

// newSession streams e's capture from arrive on at its native rate: a
// chunk is due once its last sample has arrived.
func newSession(name string, e *poolEntry, arrive time.Duration) *session {
	s := &session{name: name, entry: e, open: e.open, chunks: stream.Chunks(e.iq, chunkSamples)}
	s.due = make([]time.Duration, len(s.chunks))
	end := 0
	for k, c := range s.chunks {
		end += len(c)
		s.due[k] = arrive + time.Duration(float64(end)/e.rate*float64(time.Second))
	}
	s.started = make([]time.Duration, len(s.chunks))
	s.done = make([]time.Duration, len(s.chunks))
	return s
}

// timedProc stamps each chunk's processing on the session; the daemon
// never calls Push concurrently for one stream.
type timedProc struct {
	s     *session
	clock func() time.Duration
	next  int
}

func (p *timedProc) Push(chunk []complex128) {
	i := p.next
	p.next++
	p.s.started[i] = p.clock()
	p.s.rx.Push(chunk)
	p.s.done[i] = p.clock()
}

func (s *session) attach(d *stream.Daemon, clock func() time.Duration) {
	rx, err := s.open()
	if err != nil {
		s.err = err
		return
	}
	s.rx = rx
	if s.ds, err = d.AttachE(s.name, &timedProc{s: s, clock: clock}, queueChunks); err != nil {
		s.err = err
	}
}

// finish waits for the stream to drain and finalizes its receiver.
func (s *session) finish(clock func() time.Duration) {
	<-s.ds.Done()
	s.stalls = s.ds.Stalls()
	if s.ds.Quarantined() {
		s.err = s.ds.Err()
		return
	}
	s.state = s.rx.StateBytes()
	s.finStart = clock()
	res := s.rx.finalize()
	s.resultAt = clock()
	s.result, s.finished = digest(res), true
	s.rx = nil // the daemon keeps its streams; do not keep their receivers too
}

// event is one chunk push of the generator's plan.
type event struct {
	due   time.Duration
	s     *session
	chunk int
}

// openLoopEvents orders every chunk of every session by due time.
func openLoopEvents(sessions []*session) []event {
	var evs []event
	for _, s := range sessions {
		for k := range s.chunks {
			evs = append(evs, event{s.due[k], s, k})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].due < evs[b].due })
	return evs
}

// closedLoopEvents streams the sessions through drainSlots concurrent
// slots, back to back within a slot, pushing one chunk per busy slot per
// pass with nothing scheduled: each push goes as soon as the previous
// one returns.
func closedLoopEvents(sessions []*session) []event {
	slots := make([][]*session, min(drainSlots, len(sessions)))
	for i, s := range sessions {
		slots[i%len(slots)] = append(slots[i%len(slots)], s)
	}
	next := make([]int, len(slots)) // next chunk of each slot's current session
	var evs []event
	for busy := true; busy; {
		busy = false
		for i, q := range slots {
			if len(q) == 0 {
				continue
			}
			busy = true
			evs = append(evs, event{0, q[0], next[i]})
			if next[i]++; next[i] == len(q[0].chunks) {
				slots[i], next[i] = q[1:], 0
			}
		}
	}
	return evs
}

// drive is the one generator goroutine: it pushes events in order
// through d, each no earlier than its due time on clock. A session is
// attached at its first chunk and closed after its last. One finalizer
// goroutine waits for closed sessions to drain, in the order they were
// closed, and finalizes their receivers, so at most one Finalize competes
// with the daemon's workers at a time. drive returns once every session
// is finalized, with how late the generator ran behind the plan.
func drive(d *stream.Daemon, events []event, clock func() time.Duration) (lagMax time.Duration) {
	closed := make(chan *session, len(events)) // at most one send per session
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for s := range closed {
			s.finish(clock)
		}
	}()
	for _, ev := range events {
		if w := ev.due - clock(); w > 0 {
			time.Sleep(w)
		}
		if lag := clock() - ev.due; lag > lagMax {
			lagMax = lag
		}
		s := ev.s
		if ev.chunk == 0 {
			s.attach(d, clock)
		}
		if s.ds == nil {
			continue // attach refused: every chunk of the session fails
		}
		s.ds.Push(s.chunks[ev.chunk]) // refused only once quarantined, which finish reports
		if ev.chunk == len(s.chunks)-1 {
			s.ds.Close()
			closed <- s
		}
	}
	close(closed)
	<-finished
	return lagMax
}

// runPhase streams events through a fresh daemon with emscope serve's
// worker count, shedding policy and queue depth, and returns the
// phase's wall time and generator lateness.
func runPhase(events []event) (wall, lagMax time.Duration, start time.Time) {
	d := stream.NewDaemon(runtime.NumCPU(), stream.WithShedPolicy(stream.ShedBlock))
	start = time.Now()
	lagMax = drive(d, events, func() time.Duration { return time.Since(start) })
	wall = time.Since(start)
	d.Drain()
	return wall, lagMax, start
}

// openLoopSessions draws the open-loop arrivals: a Poisson process
// conditioned on its count, so the arrival times are uniform over the
// window and the count offers offeredMsps. Captures are dealt from
// shuffled decks holding each covert capture deckCovert times and each
// keystroke capture once, so every run offers the same mix.
func openLoopSessions(seed int64, window time.Duration, pool []*poolEntry) []*session {
	rng := xrand.New(roundSeed(seed, "daemon", 1))
	var deck []*poolEntry
	var deckSamples float64
	for _, e := range pool {
		n := 1
		if e.cov != nil {
			n = deckCovert
		}
		for i := 0; i < n; i++ {
			deck = append(deck, e)
			deckSamples += float64(len(e.iq))
		}
	}
	count := int(offeredMsps * 1e6 * window.Seconds() / (deckSamples / float64(len(deck))))
	times := make([]float64, count)
	for i := range times {
		times[i] = rng.Uniform(0, window.Seconds())
	}
	sort.Float64s(times)
	out := make([]*session, count)
	var order []int
	for i, t := range times {
		if len(order) == 0 {
			order = rng.Perm(len(deck))
		}
		out[i] = newSession(fmt.Sprintf("open%d", i), deck[order[0]], time.Duration(t*float64(time.Second)))
		order = order[1:]
	}
	return out
}

// closedLoopSessions is the fixed drain set: the pool drainPasses times.
func closedLoopSessions(pool []*poolEntry) []*session {
	var out []*session
	for p := 0; p < drainPasses; p++ {
		for _, e := range pool {
			out = append(out, newSession(fmt.Sprintf("drain%d", len(out)), e, 0))
		}
	}
	return out
}

// daemonSetup is what the daemon phases prepare before they run.
type daemonSetup struct {
	pool         []*poolEntry
	open, closed []*session
	window       time.Duration
}

func setUpDaemon(o options) (daemonSetup, error) {
	core.ResetTraceCache() // the pool synthesizes its captures afresh
	su := daemonSetup{pool: daemonPool(o.seed)}
	for _, e := range su.pool {
		e.prepare()
	}
	su.window = time.Duration(openShare * float64(o.seconds) * float64(time.Second))
	su.open = openLoopSessions(o.seed, su.window, su.pool)
	su.closed = closedLoopSessions(su.pool)
	// Warm-up: one covert and one keystroke capture through a scratch
	// daemon, as sessions outside both phases.
	warm := []*session{newSession("warm0", su.pool[0], 0), newSession("warm1", su.pool[len(su.pool)-1], 0)}
	runPhase(closedLoopEvents(warm))
	for _, s := range warm {
		if s.err != nil || !s.finished {
			return su, fmt.Errorf("warm-up session %s: %v", s.name, s.err)
		}
	}
	return su, nil
}

// phaseFigures summarizes one phase's sessions.
type phaseFigures struct {
	wait            sample // chunk due → started
	chunks, samples int
	backlogEnd      int // chunks due by the window's end, not yet processed then
	stalls          uint64
	stateMax        int
}

func summarize(sessions []*session, window time.Duration) phaseFigures {
	var f phaseFigures
	for _, s := range sessions {
		f.stalls += s.stalls
		f.stateMax = max(f.stateMax, s.state)
		for k, c := range s.chunks {
			f.chunks++
			f.samples += len(c)
			if s.err != nil || !s.finished {
				if s.due[k] <= window {
					f.backlogEnd++
				}
				continue
			}
			f.wait.add(s.started[k] - s.due[k])
			if s.due[k] <= window && s.done[k] > window {
				f.backlogEnd++
			}
		}
	}
	return f
}

// shedCounts reads the daemon's shed-chunk and refused-attach counters.
func shedCounts() (chunks, attaches uint64) {
	c := telemetry.Capture().Counters
	return c["stream.shed.chunks"], c["stream.shed.attach_rejected"]
}

// verifyStreams compares every streamed session's output with the batch
// pipeline's on the same capture. The batch output of each capture is
// scored through Prepared*.Finish; a session that matches it carries
// that score. It returns the summed scores and counts failed chunks on
// rep.
func verifyStreams(sessions []*session, rep *report) outcome {
	type ref struct {
		digest uint64
		score  outcome
	}
	refs := map[*poolEntry]ref{}
	var sum outcome
	for _, s := range sessions {
		if s.err != nil || !s.finished {
			rep.failed += len(s.chunks)
			rep.problemf("session %s: %v", s.name, s.err)
			continue
		}
		r, ok := refs[s.entry]
		if !ok {
			batch := s.entry.batch()
			r = ref{digest(batch), s.entry.score(batch)}
			refs[s.entry] = r
		}
		if s.result != r.digest {
			rep.failed += len(s.chunks)
			rep.problemf("session %s: streamed result differs from batch", s.name)
			continue
		}
		sum = sum.plus(r.score)
	}
	return sum
}

// daemonRun is what one pass over the daemon phases measured.
type daemonRun struct {
	open, drain phaseFigures
	lagMax      time.Duration
}

// runDaemonPhases streams the open loop and then the closed loop of su,
// verifies every session, counts failures on rep, and records the
// receivers' Push and Finalize spans on t.
func runDaemonPhases(su daemonSetup, t *tracer, rep *report) *daemonRun {
	var r daemonRun
	shed0, rej0 := shedCounts()
	openWall, lagMax, openStart := runPhase(openLoopEvents(su.open))
	r.lagMax = lagMax
	drainWall, _, drainStart := runPhase(closedLoopEvents(su.closed))
	shed1, rej1 := shedCounts()
	chunkSpans(t, su.open, openStart)
	chunkSpans(t, su.closed, drainStart)

	r.open = summarize(su.open, su.window)
	r.drain = summarize(su.closed, 0)
	rep.attempted += r.open.chunks + r.drain.chunks
	if shed, rej := shed1-shed0, rej1-rej0; shed+rej > 0 {
		rep.failed += int(shed)
		rep.problemf("daemon shed %d chunks and refused %d attaches", shed, rej)
	}
	quality(verifyStreams(append(append([]*session(nil), su.open...), su.closed...), rep), rep)

	rep.notef("open loop: %d sessions (%d chunks, %.1f Msamples) arriving over %.1f s at %.1f Msamples/s offered; phase wall %.2f s; generator lag max %.2f ms; backlog at the window's end %d chunks",
		len(su.open), r.open.chunks, float64(r.open.samples)/1e6, su.window.Seconds(), float64(r.open.samples)/1e6/su.window.Seconds(), openWall.Seconds(), ms(r.lagMax), r.open.backlogEnd)
	rep.notef("closed loop: %d sessions (%d chunks, %.1f Msamples) drained in %.2f s",
		len(su.closed), r.drain.chunks, float64(r.drain.samples)/1e6, drainWall.Seconds())
	daemonShares(su, r.open, rep)
	return &r
}

// streamFigures returns the stream-layer figures of a daemon pass.
func (r *daemonRun) streamFigures() streamFigures {
	waitTail, _, _ := r.open.wait.tail(tailBeyond)
	return streamFigures{
		waitP50:       time.Duration(r.open.wait.median() * float64(time.Millisecond)),
		waitTail:      time.Duration(waitTail * float64(time.Millisecond)),
		genLagMax:     r.lagMax,
		backlogEnd:    r.open.backlogEnd,
		stalls:        r.open.stalls + r.drain.stalls,
		stateBytesMax: max(r.open.stateMax, r.drain.stateMax),
	}
}

// traceStreams sets the daemon phases up and runs them once, recording
// their spans on t, and returns the stream-layer figures. It gives
// covert-transfer's traced run the stream layer's per-layer metrics.
func traceStreams(o options, t *tracer, rep *report) (streamFigures, error) {
	su, err := setUpDaemon(o)
	if err != nil {
		return streamFigures{}, err
	}
	return runDaemonPhases(su, t, rep).streamFigures(), nil
}

// chunkSpans records each processed chunk's receiver push and each
// session's Finalize as spans.
func chunkSpans(t *tracer, sessions []*session, phaseStart time.Time) {
	off := phaseStart.Sub(t.epoch)
	for i, s := range sessions {
		if !s.finished {
			continue
		}
		for k := range s.chunks {
			t.record(span{Name: "stream.push", Op: i, Parent: -1, Start: off + s.started[k], End: off + s.done[k]})
		}
		t.record(span{Name: "stream.finalize", Op: i, Parent: -1, Start: off + s.finStart, End: off + s.resultAt})
	}
}

// daemonShares notes the session mix the open loop achieved.
func daemonShares(su daemonSetup, open phaseFigures, rep *report) {
	cov, covChunks := 0, 0
	for _, s := range su.open {
		if s.entry.cov != nil {
			cov++
			covChunks += len(s.chunks)
		}
	}
	rep.notef("mix: open-loop sessions covert %.3f, covert chunks %.3f; pool %d captures", float64(cov)/float64(len(su.open)), float64(covChunks)/float64(open.chunks), len(su.pool))
}
