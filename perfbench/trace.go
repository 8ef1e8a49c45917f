package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's epoch; parent is the index of the enclosing span, -1 for a
// root (one op).
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, so traced and untraced code share one
// path. Safe for concurrent use (daemon workers record from several
// goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: start})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a finished span with explicit times.
func (t *tracer) record(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered measures the union of the child intervals clipped to p.
func covered(p span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			reach = v.hi
		}
	}
	return total
}

// busy sums self time by span name.
func (t *tracer) busy() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].Name] += d
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
