// Package sim provides the discrete-event simulation core that every
// hardware and operating-system model in this repository runs on.
//
// The simulation advances in whole nanoseconds. Events scheduled at the
// same instant fire in scheduling order, which makes every run fully
// deterministic for a given seed and workload. That determinism is load
// bearing: the experiment harness asserts bit-exact results across runs.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a simulated instant or duration, in nanoseconds since the start
// of the simulation. It deliberately mirrors time.Duration semantics so
// that model code reads naturally, but it is a separate type: simulated
// time never has any relationship to the wall clock.
type Time int64

// Convenient duration units for model code.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit, e.g. "1.5ms" or "250ns".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gµs", t.Micros())
	}
	return fmt.Sprintf("%dns", int64(t))
}

// FromSeconds converts a floating-point number of seconds to a Time,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Time {
	if s >= 0 {
		return Time(s*float64(Second) + 0.5)
	}
	return -Time(-s*float64(Second) + 0.5)
}

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler owns the simulated clock and the pending event queue.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now    Time
	events eventHeap
	seq    uint64
	fired  uint64
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have executed so far. Useful for
// detecting runaway models in tests.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are queued.
func (s *Scheduler) Pending() int { return len(s.events) }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: a model doing that is broken and silently clamping would
// corrupt experiment timelines.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (s *Scheduler) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Step runs the single earliest pending event, advancing the clock to its
// scheduled time. It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	s.fired++
	e.fn()
	return true
}

// RunUntil executes events until the clock reaches t. Events scheduled
// exactly at t do run. The clock always ends at t, even if the queue
// drains early.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.events) > 0 && s.events[0].at <= t {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		s.fired++
		e.fn()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events for the next d nanoseconds of simulated time.
func (s *Scheduler) RunFor(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative run duration %v", d))
	}
	s.RunUntil(s.now + d)
}

// Drain runs every pending event regardless of time. It exists for
// tests and for flushing shutdown work; production experiment loops use
// RunUntil with an explicit horizon.
func (s *Scheduler) Drain() {
	for s.Step() {
	}
}
