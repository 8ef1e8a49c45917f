package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"time"

	"pmuleak/internal/admin"
	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
)

// serveOptions is the `-mode serve` (emscoped) configuration.
type serveOptions struct {
	streams int
	workers int
	chunk   int
	queue   int
	kind    string // covert | keys | mixed
	verify  bool
	// admin is the introspection listener address ("" = off). The
	// listener serves /metrics, /streams, /healthz, and /debug/pprof
	// (internal/admin) for the life of the process; its actual address is
	// printed on stderr so ":0" works in scripts.
	admin string
	// linger keeps the process (and the admin listener) alive for this
	// long after the final report, so external probes can scrape a
	// finished daemon.
	linger time.Duration

	// checkpoint enables kill-and-resume: per-stream processor state is
	// persisted to this directory every ckptEvery chunks, restored at
	// startup, and removed when the stream finishes cleanly.
	checkpoint string
	ckptEvery  int
	// chaos selects a deterministic fault class (off | stall | slow |
	// kill | corrupt) keyed by chaosSeed — the same seed injects the
	// same faults at the same chunks on every run.
	chaos     string
	chaosSeed int64
}

// serveStream is one attached capture stream: its prepared ground
// truth and its incremental processor. The rx/kd field always points at
// the CURRENT processor — recovery after a quarantine swaps in a fresh
// one, and the report finalizes whatever is current.
type serveStream struct {
	name string
	// exactly one of the covert/keylog pairs is set
	pc *core.PreparedCovert
	rx *stream.CovertReceiver
	pk *core.PreparedKeylog
	kd *stream.KeylogDetector
}

// newProc (re)constructs the stream's processor from its prepared
// config — the initial build, and the recovery path's clean slate (a
// quarantined processor's state is mid-chunk garbage and must never be
// restored into or finalized).
func (s *serveStream) newProc() error {
	if s.pc != nil {
		rx, err := stream.NewCovertReceiver(s.pc.RXCfg, s.pc.Cap.SampleRate, s.pc.Cap.CenterFreqHz)
		if err != nil {
			return err
		}
		s.rx = rx
		return nil
	}
	kd, err := stream.NewKeylogDetector(s.pk.DetCfg, s.pk.Cap.SampleRate, s.pk.Cap.CenterFreqHz)
	if err != nil {
		return err
	}
	s.kd = kd
	return nil
}

func (s *serveStream) proc() stream.Processor {
	if s.rx != nil {
		return s.rx
	}
	return s.kd
}

func (s *serveStream) ckpt() stream.Checkpointer {
	if s.rx != nil {
		return s.rx
	}
	return s.kd
}

func (s *serveStream) capture() *sdr.Capture {
	if s.pc != nil {
		return s.pc.Cap
	}
	return s.pk.Cap
}

// stallDeadline bounds each source Next of a clean attempt. It is far
// above a chunk's fetch time, so only a wedged source trips it, never a
// scheduling hiccup on a loaded host.
const stallDeadline = 2 * time.Second

// chaosPlan maps a -chaos class name to its fault intensities and the
// stall deadline of the chaos-wrapped first attempt that makes the class
// bite: the stall class blocks well past its deadline (quarantining the
// stream, which resumes from its checkpoint), the slow class stays well
// under it (pure backpressure). The corrupt class also schedules the
// kill, so that a restore reads the checkpoint it rots.
func chaosPlan(class string) (faults.ChaosConfig, time.Duration, error) {
	switch class {
	case "", "off":
		return faults.ChaosConfig{}, stallDeadline, nil
	case "stall":
		return faults.ChaosConfig{StallProb: 0.08, StallFor: 150 * time.Millisecond}, 25 * time.Millisecond, nil
	case "slow":
		return faults.ChaosConfig{SlowProb: 0.25, SlowFor: 2 * time.Millisecond}, stallDeadline, nil
	case "kill":
		return faults.ChaosConfig{Kill: true, KillFrac: 0.6}, stallDeadline, nil
	case "corrupt":
		return faults.ChaosConfig{CorruptCheckpoints: true, Kill: true, KillFrac: 0.6}, stallDeadline, nil
	default:
		return faults.ChaosConfig{}, 0, fmt.Errorf("unknown -chaos class %q (off | stall | slow | kill | corrupt)", class)
	}
}

// runServe is the emscoped entry point: it prepares one capture per
// stream (distinct seeds, so each stream carries different payloads and
// keystrokes), multiplexes all of them over a stream.Daemon worker
// pool in -chunk-sample chunks through bounded -queue rings, drains
// gracefully, and scores every stream's finalized output against its
// ground truth. With -verify it additionally recomputes each stream
// with the same receiver fed the whole capture as one chunk
// (covert.Demodulate / keylog.Detect) and requires the chunked result
// to match byte for byte — the CI daemon smoke gate.
//
// With -checkpoint the daemon persists processor state and restores it
// at startup, so a killed process resumes where it left off; with
// -chaos it injects one deterministic fault class and must STILL verify
// byte-identical — the chaos smoke gate. Returns the process exit code.
func runServe(prof laptop.Profile, seed int64, distance float64, o serveOptions) int {
	if o.streams < 1 || o.workers < 1 || o.chunk < 1 || o.queue < 1 {
		fmt.Fprintln(os.Stderr, "emscope: -streams, -workers, -chunk, and -queue must all be >= 1")
		return 2
	}
	chaosCfg, chaosStall, err := chaosPlan(o.chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emscope: %v\n", err)
		return 2
	}
	var chaos *faults.Chaos
	if chaosCfg.Enabled() {
		if chaos, err = faults.NewChaos(chaosCfg, o.chaosSeed); err != nil {
			fmt.Fprintf(os.Stderr, "emscope: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "emscoped: chaos class %q, seed %d\n", o.chaos, o.chaosSeed)
	}
	if o.checkpoint != "" {
		if err := os.MkdirAll(o.checkpoint, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "emscope: -checkpoint: %v\n", err)
			return 2
		}
	}
	fmt.Printf("%s — emscoped: %d streams (%s) over %d workers, chunk %d samples, queue %d chunks\n",
		prof, o.streams, o.kind, o.workers, o.chunk, o.queue)

	// The admin plane comes up before any stream is attached, so a
	// scraper watching /streams sees the daemon's whole life. Everything
	// it prints goes to stderr: stdout carries only the report.
	if o.admin != "" {
		l, err := net.Listen("tcp", o.admin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emscope: -admin: %v\n", err)
			return 2
		}
		srv := admin.New()
		fmt.Fprintf(os.Stderr, "emscoped: admin plane listening on http://%s\n", l.Addr())
		go srv.Serve(l)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}

	streams := make([]*serveStream, o.streams)
	for i := range streams {
		tb := core.NewTestbed(
			core.WithLaptop(prof),
			core.WithSeed(seed+int64(i)),
			core.WithDistance(distance),
		)
		covertStream := o.kind == "covert" || (o.kind == "mixed" && i%2 == 0)
		s := &serveStream{}
		if covertStream {
			s.name = fmt.Sprintf("cov%d", i)
			s.pc = tb.PrepareCovert(core.CovertConfig{PayloadBits: 48})
		} else {
			s.name = fmt.Sprintf("key%d", i)
			s.pk = tb.PrepareKeylog(core.KeylogConfig{Words: 3})
		}
		if err := s.newProc(); err != nil {
			fmt.Fprintf(os.Stderr, "emscope: stream %s: %v\n", s.name, err)
			return 2
		}
		streams[i] = s
	}

	dopts := []stream.DaemonOption{}
	if o.checkpoint != "" {
		dopts = append(dopts, stream.WithCheckpoints(o.checkpoint, o.ckptEvery))
	}
	d := stream.NewDaemon(o.workers, dopts...)

	feedErrs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s *serveStream) {
			defer wg.Done()
			feedErrs[i] = feedStream(d, s, o, chaos, uint64(i), chaosStall)
		}(i, s)
	}
	wg.Wait()
	d.Drain()

	// Graceful-drain snapshot: the full final telemetry state as
	// deterministic JSON on stderr — the chunked-vs-one-chunk identity
	// checks compare stdout, so the dump must not land there.
	fmt.Fprintln(os.Stderr, "emscoped: final telemetry snapshot after drain:")
	if err := telemetry.Capture().WriteJSON(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "emscope: telemetry dump: %v\n", err)
	}

	exit := 0
	for i, s := range streams {
		if feedErrs[i] != nil {
			fmt.Fprintf(os.Stderr, "emscope: stream %s: %v\n", s.name, feedErrs[i])
			exit = 1
			continue
		}
		raw := 16 * len(s.capture().IQ)
		if s.rx != nil {
			state := s.rx.StateBytes()
			demod := s.rx.Finalize()
			res := s.pc.Finish(demod)
			fmt.Printf("stream %-6s covert: %s payload_ok=%v  state %s of %s raw (%dx)\n",
				s.name, res.Measurement, res.Measurement.PayloadOK,
				fmtBytes(state), fmtBytes(raw), raw/state)
			if o.verify {
				batch := covert.Demodulate(s.pc.Cap, s.pc.RXCfg)
				exit = verdict(s.name, reflect.DeepEqual(demod, batch), exit)
			}
		} else {
			state := s.kd.StateBytes()
			det := s.kd.Finalize()
			res := s.pk.Finish(det)
			fmt.Printf("stream %-6s keylog: %d/%d keystrokes, TPR %.2f FPR %.2f  state %s of %s raw (%dx)\n",
				s.name, res.Char.Matched, res.Char.Truth, res.Char.TPR, res.Char.FPR,
				fmtBytes(state), fmtBytes(raw), raw/state)
			if o.verify {
				batch := keylog.Detect(s.pk.Cap, s.pk.DetCfg)
				exit = verdict(s.name, reflect.DeepEqual(det, batch), exit)
			}
		}
		// A finished stream's checkpoint is stale state — a later run
		// must start this stream fresh, not resume past its own end.
		if o.checkpoint != "" {
			os.Remove(stream.CheckpointPath(o.checkpoint, s.name))
		}
		s.capture().Recycle()
	}

	fmt.Println("\ntelemetry stream.daemon.*:")
	snap := telemetry.Capture().FilterPrefix("stream.daemon.")
	for _, name := range snap.CounterNames() {
		fmt.Printf("  %-40s %d\n", name, snap.Counters[name])
	}
	if o.verify {
		if exit == 0 {
			fmt.Printf("verify: all %d streams byte-identical to one-chunk receives\n", o.streams)
		} else {
			fmt.Println("verify: FAILED")
		}
	}
	if o.linger > 0 {
		fmt.Fprintf(os.Stderr, "emscoped: lingering %v (admin plane stays up)\n", o.linger)
		time.Sleep(o.linger)
	}
	return exit
}

// feedStream drives one stream to completion: restore from checkpoint
// if one exists, feed the remaining samples through a supervised
// source, and — when the stream is quarantined (a processor panic, or a
// source that stalled or failed) — rebuild the processor, restore the
// last checkpoint, and replay from there, up to maxRecoveries times.
// Chunk-size invariance is what makes this byte-exact: a restored
// processor replaying iq[Consumed():] at any chunking finishes
// identical to the uninterrupted run. chaosStall is the stall deadline
// of the chaos-wrapped first attempt; every other attempt runs under
// stallDeadline.
func feedStream(d *stream.Daemon, s *serveStream, o serveOptions, chaos *faults.Chaos, key uint64, chaosStall time.Duration) error {
	iq := s.capture().IQ
	totalChunks := (len(iq) + o.chunk - 1) / o.chunk

	restore := func() error {
		if o.checkpoint == "" {
			return nil
		}
		path := stream.CheckpointPath(o.checkpoint, s.name)
		if _, err := os.Stat(path); err != nil {
			return nil // no checkpoint: start fresh from sample 0
		}
		if chaos != nil {
			// The corrupt class rots the checkpoint before restore; the
			// digest check must turn that into a clean fresh start.
			if err := chaos.CorruptFile(key, path); err != nil {
				fmt.Fprintf(os.Stderr, "emscoped: %s: corrupt checkpoint: %v\n", s.name, err)
			}
		}
		if err := stream.RestoreCheckpoint(o.checkpoint, s.name, s.ckpt()); err != nil {
			fmt.Fprintf(os.Stderr, "emscoped: %s: checkpoint restore failed (%v), starting fresh\n", s.name, err)
			return s.newProc()
		}
		fmt.Fprintf(os.Stderr, "emscoped: %s: restored from checkpoint at sample %d/%d\n",
			s.name, s.ckpt().Consumed(), len(iq))
		return nil
	}
	if err := restore(); err != nil {
		return err
	}

	const maxRecoveries = 3
	for attempt := 0; ; attempt++ {
		consumed := s.ckpt().Consumed()
		var src stream.Source = stream.NewSliceSource(iq[consumed:], o.chunk)
		proc, stall := s.proc(), stallDeadline
		if chaos != nil && attempt == 0 && consumed == 0 {
			// Chaos applies to the first, from-scratch attempt only: the
			// recovery and resume paths run clean, so every class
			// converges to the uninterrupted result.
			src = chaos.Source(key, src)
			proc = chaos.Processor(key, totalChunks, proc)
			stall = chaosStall
		}
		sv, err := d.Supervise(s.name, proc, o.queue, src, stall)
		if err != nil {
			return err
		}
		sv.Wait()
		if !sv.Quarantined() {
			return nil
		}
		if attempt+1 >= maxRecoveries {
			return fmt.Errorf("gave up after %d recoveries: %v", attempt+1, sv.Err())
		}
		fmt.Fprintf(os.Stderr, "emscoped: %s: quarantined (%v) — recovering (attempt %d/%d)\n",
			s.name, sv.Err(), attempt+1, maxRecoveries-1)
		if err := s.newProc(); err != nil {
			return err
		}
		if err := restore(); err != nil {
			return err
		}
	}
}

// verdict prints one stream's verification outcome and folds it into
// the exit code.
func verdict(name string, ok bool, exit int) int {
	if ok {
		fmt.Printf("  verify %s: streamed output matches the one-chunk receive byte-for-byte\n", name)
		return exit
	}
	fmt.Fprintf(os.Stderr, "emscope: verify %s: streamed output DIVERGED from the one-chunk receive\n", name)
	return 1
}

// fmtBytes renders a byte count in the nearest binary unit.
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
