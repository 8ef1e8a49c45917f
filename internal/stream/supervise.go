package stream

import (
	"fmt"
	"io"
	"time"
)

// Source is a pull-based chunk producer for a supervised stream: Next
// returns the next chunk of IQ samples, io.EOF at the clean end of the
// capture, or another error for an acquisition failure. Next is never
// called concurrently; a call that outlived its stall deadline may still
// be running after its stream was quarantined, but no further call
// starts.
type Source interface {
	Next() ([]complex128, error)
}

// SliceSource serves a fixed in-memory capture as uniform chunks — the
// Source used by emscope serve and the tests, and the restore path's
// replay vehicle: build it over iq[consumed:] and the supervisor
// resumes exactly where the checkpoint left off.
type SliceSource struct {
	chunks [][]complex128
}

// NewSliceSource chunks iq into size-sample pieces (last one shorter).
// The chunks alias iq.
func NewSliceSource(iq []complex128, size int) *SliceSource {
	return &SliceSource{chunks: Chunks(iq, size)}
}

// Next returns the next chunk, or io.EOF past the end.
func (s *SliceSource) Next() ([]complex128, error) {
	if len(s.chunks) == 0 {
		return nil, io.EOF
	}
	chunk := s.chunks[0]
	s.chunks = s.chunks[1:]
	return chunk, nil
}

// Supervised is a daemon stream fed by a Source: a pump goroutine pulls
// chunks into the stream and quarantines it when the source stalls past
// its deadline or fails. Wait blocks until both the pump and the stream
// are finished.
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
// pump goroutine feeding it from src. The stream closes cleanly when src
// returns io.EOF. A Next that delivers nothing within stall, or that
// returns any other error, quarantines the stream the way a processor
// panic does: it is counted on stream.quarantine.stalls and the cause is
// on Err, and the caller recovers it by resuming from its last
// checkpoint. A stall of 0 turns the deadline off (Next may block
// forever).
func (d *Daemon) Supervise(name string, proc Processor, queueCap int, src Source, stall time.Duration) (*Supervised, error) {
	s, err := d.AttachE(name, proc, queueCap)
	if err != nil {
		return nil, err
	}
	sv := &Supervised{DaemonStream: s, pumpDone: make(chan struct{})}
	go sv.pump(src, stall)
	return sv, nil
}

type nextResult struct {
	chunk []complex128
	err   error
}

// pump is the supervision loop. Each Next runs on its own fetch
// goroutine and delivers into a 1-buffered channel, so a call that
// outlives the deadline is not waited for: the stream is quarantined,
// the late result parks in the buffer and the fetch goroutine exits.
// The next call starts only after the previous one delivered, so Next
// is never called concurrently.
func (sv *Supervised) pump(src Source, stall time.Duration) {
	defer close(sv.pumpDone)
	pending := make(chan nextResult, 1)
	for {
		go func() {
			c, err := src.Next()
			pending <- nextResult{c, err}
		}()
		var res nextResult
		if stall > 0 {
			timer := time.NewTimer(stall)
			select {
			case res = <-pending:
				timer.Stop()
			case <-timer.C:
				sv.d.quarantine(sv.DaemonStream, fmt.Errorf("stream: source stalled: no chunk within %v", stall), quarStalls)
				return
			}
		} else {
			res = <-pending
		}
		switch {
		case res.err == io.EOF:
			sv.Close()
			return
		case res.err != nil:
			sv.d.quarantine(sv.DaemonStream, fmt.Errorf("stream: source failed: %w", res.err), quarStalls)
			return
		}
		if !sv.Push(res.chunk) {
			return
		}
	}
}
