package stream

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// Retry telemetry for supervised sources. attempts counts every
// stall/error retry, restarts counts escalations to Restarter.Restart
// (the carrier re-acquisition analogue), giveups counts sources
// abandoned to quarantine after the full budget.
var (
	retryAttempts = telemetry.NewCounter("stream.retry.attempts")
	retryRestarts = telemetry.NewCounter("stream.retry.restarts")
	retryGiveups  = telemetry.NewCounter("stream.retry.giveups")
)

// Source is a pull-based chunk producer for a supervised stream: Next
// returns the next chunk of IQ samples, io.EOF at the clean end of the
// capture, or another error for a transient acquisition failure. The
// supervisor owns the call schedule; Next is never called concurrently,
// but an abandoned call (one that outlived its stall deadline) may
// still be running when the next one would start — the supervisor waits
// for it instead of overlapping calls.
type Source interface {
	Next() ([]complex128, error)
}

// Restarter is an optional Source capability: a full re-acquisition
// reset, the streaming analogue of the batch receiver's carrier retry
// widen (§IV-B). A supervisor that exhausts its per-chunk retry budget
// invokes Restart once — a success refills the budget, a failure (or a
// second exhaustion) gives the stream up to quarantine.
type Restarter interface {
	Restart() error
}

// SliceSource serves a fixed in-memory capture as uniform chunks — the
// Source used by emscope serve and the tests, and the restore path's
// replay vehicle: build it over iq[consumed:] and the supervisor
// resumes exactly where the checkpoint left off.
type SliceSource struct {
	iq   []complex128
	size int
	off  int
}

// NewSliceSource chunks iq into size-sample pieces (last one shorter).
func NewSliceSource(iq []complex128, size int) *SliceSource {
	if size < 1 {
		panic(fmt.Sprintf("stream: SliceSource chunk size %d must be >= 1", size))
	}
	return &SliceSource{iq: iq, size: size}
}

// Next returns the next chunk, or io.EOF past the end. The chunk
// aliases the backing slice.
func (s *SliceSource) Next() ([]complex128, error) {
	if s.off >= len(s.iq) {
		return nil, io.EOF
	}
	hi := s.off + s.size
	if hi > len(s.iq) {
		hi = len(s.iq)
	}
	chunk := s.iq[s.off:hi]
	s.off = hi
	return chunk, nil
}

// backoffJitter is the ± fraction applied to each retry delay: delays
// fall in [0.5d, 1.5d), drawn from the seed-keyed substream.
const backoffJitter = 0.5

// SuperviseConfig tunes a supervised source's failure handling. The
// zero value gets sane defaults from withDefaults; Seed keys the
// backoff jitter substream so two runs with the same seed sleep the
// same schedule — retry timing is replayable like everything else.
type SuperviseConfig struct {
	// StallDeadline bounds one Next call; 0 disables the watchdog
	// (Next may block forever).
	StallDeadline time.Duration
	// MaxRetries is the consecutive stall/error budget before
	// escalating to Restart (and after a restart, before giving up).
	MaxRetries int
	// BackoffBase is the first retry delay; each further retry doubles
	// it up to BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed keys the jitter substream together with the stream name.
	Seed int64
}

func (c SuperviseConfig) withDefaults() SuperviseConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	return c
}

// Supervised is a daemon stream fed by a supervised Source: a pump
// goroutine pulls chunks, enforces the stall deadline, retries with
// seed-keyed exponential backoff, escalates to Restart, and finally
// quarantines the stream if the source never recovers. Wait blocks
// until both the pump and the stream are finished.
type Supervised struct {
	*DaemonStream
	pumpDone chan struct{}
}

// Wait blocks until the pump goroutine has exited and the stream's
// buffered chunks are fully processed (or the stream was quarantined).
func (sv *Supervised) Wait() {
	<-sv.pumpDone
	<-sv.Done()
}

// Supervise attaches a stream (through admission control) and starts a
// pump goroutine feeding it from src under cfg's failure policy. The
// stream closes cleanly when src returns io.EOF; it is quarantined
// (quarStalls, stream.retry.giveups) when the retry-then-restart budget
// is exhausted.
func (d *Daemon) Supervise(name string, proc Processor, queueCap int, src Source, cfg SuperviseConfig) (*Supervised, error) {
	s, err := d.AttachE(name, proc, queueCap)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	sv := &Supervised{DaemonStream: s, pumpDone: make(chan struct{})}
	go sv.pump(src, cfg)
	return sv, nil
}

type nextResult struct {
	chunk []complex128
	err   error
}

// pump is the supervision loop. One fetch goroutine per outstanding
// Next call delivers into a 1-buffered channel, so a call that outlives
// its deadline is not lost: the pump keeps waiting for the same pending
// result on the next attempt (Next is never called concurrently), and
// if the stream dies first the late result parks in the buffer and the
// fetch goroutine exits — no leak either way.
func (sv *Supervised) pump(src Source, cfg SuperviseConfig) {
	defer close(sv.pumpDone)
	h := fnv.New64a()
	h.Write([]byte(sv.Name()))
	rng := xrand.Sub(cfg.Seed, h.Sum64())
	restarter, _ := src.(Restarter)

	pending := make(chan nextResult, 1)
	inFlight := false
	retries := 0
	restarted := false

	fail := func(cause error) bool {
		// One consecutive failure (stall or source error). Returns
		// false when the stream should be given up.
		retries++
		retryAttempts.Inc()
		sv.retries.Inc()
		if retries > cfg.MaxRetries {
			if restarter != nil && !restarted {
				restarted = true
				retries = 0
				retryRestarts.Inc()
				if err := restarter.Restart(); err == nil {
					return true
				}
				retryGiveups.Inc()
				sv.d.quarantine(sv.DaemonStream, fmt.Errorf("stream: source restart failed after %v", cause), quarStalls)
				return false
			}
			retryGiveups.Inc()
			sv.d.quarantine(sv.DaemonStream, fmt.Errorf("stream: source gave up: %v", cause), quarStalls)
			return false
		}
		time.Sleep(sv.backoff(&rng, retries, cfg))
		return true
	}

	for {
		if !inFlight {
			go func() {
				c, err := src.Next()
				pending <- nextResult{c, err}
			}()
			inFlight = true
		}
		var res nextResult
		if cfg.StallDeadline > 0 {
			timer := time.NewTimer(cfg.StallDeadline)
			select {
			case res = <-pending:
				timer.Stop()
				inFlight = false
			case <-timer.C:
				if !fail(fmt.Errorf("stall: no chunk within %v", cfg.StallDeadline)) {
					return
				}
				continue
			}
		} else {
			res = <-pending
			inFlight = false
		}
		switch {
		case res.err == io.EOF:
			sv.Close()
			return
		case res.err != nil:
			if !fail(res.err) {
				return
			}
		default:
			if !sv.Push(res.chunk) {
				return
			}
			retries = 0
		}
	}
}

// backoff returns the attempt-th retry delay: exponential from
// BackoffBase, capped at BackoffMax, with ±backoffJitter applied from
// the stream's deterministic substream.
func (sv *Supervised) backoff(rng *xrand.Lite, attempt int, cfg SuperviseConfig) time.Duration {
	d := cfg.BackoffBase
	for i := 1; i < attempt && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	scale := 1 + backoffJitter*(2*rng.Float64()-1)
	return time.Duration(float64(d) * scale)
}
