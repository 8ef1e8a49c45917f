// Package telemetry is the pipeline's self-measurement layer: race-safe
// atomic counters, gauges, and log-bucketed duration histograms behind a
// process-wide registry whose snapshots serialize in deterministic
// (sorted) order.
//
// Two constraints shape the design, both inherited from the simulation's
// determinism contract (see the internal/sweep doc comment):
//
//   - Telemetry never writes to any stream on its own. Metrics
//     accumulate silently; a caller (cmd/paperbench's -metrics/-stats
//     flags) decides when and where a snapshot is rendered, and stdout
//     is never that place.
//
//   - Recording must be cheap enough to leave on unconditionally. A
//     counter add is one atomic RMW; a span is two time.Now calls plus
//     three atomic RMWs. Instrumentation sites sit at call granularity
//     (one Observe per STFT call, per sweep cell, per capture), never
//     per sample.
//
// Counter values split into two classes. Series derived from the
// simulation's own call sequence — trace-cache hits/misses, FFT-plan
// hits/misses, samples produced, cells executed — are identical for
// every run of the same configuration, including across -jobs settings.
// Series that observe the runtime itself — durations, sync.Pool
// recycling (the garbage collector may empty the pool at any time) —
// legitimately vary run to run. The snapshot's key set depends only on
// which code paths ran, not on scheduling.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// usable, but counters obtained via NewCounter are also registered for
// snapshotting.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter. Counters are monotonic from the
// instrumented code's point of view; Reset exists for tests and for
// cache-reset entry points (core.ResetTraceCache) that historically
// zeroed their own statistics.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an instantaneous signed level (pool occupancy, active
// workers). The zero value is usable.
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Reset zeroes the gauge.
func (g *Gauge) Reset() { g.v.Store(0) }

// ---------------------------------------------------------------------
// Registry.

// Registry holds named metrics and produces deterministic snapshots.
// All methods are safe for concurrent use; metric lookups take a mutex,
// so callers on hot paths should hold the returned metric in a package
// variable rather than re-resolving it per event.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// std is the process-wide default registry; the package-level helpers
// operate on it.
var std = NewRegistry()

// Counter returns the registered counter with the given name, creating
// it on first use. Registering a name already used by another metric
// kind panics: names are the snapshot's keys and must be unambiguous.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the registered gauge with the given name, creating it
// on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the registered histogram with the given name,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// checkFreeLocked panics when name is already taken by a different
// metric kind.
func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram, requested as %s", name, kind))
	}
}

// Reset zeroes every registered metric. Metric identities survive (held
// pointers stay valid), so instrumented packages keep working; only the
// accumulated values are dropped. Used by tests and by cache-reset
// entry points that historically zeroed their own counters.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Reset()
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// NewCounter returns the named counter from the default registry.
func NewCounter(name string) *Counter { return std.Counter(name) }

// NewGauge returns the named gauge from the default registry.
func NewGauge(name string) *Gauge { return std.Gauge(name) }

// NewHistogram returns the named histogram from the default registry.
func NewHistogram(name string) *Histogram { return std.Histogram(name) }

// Reset zeroes every metric in the default registry.
func Reset() { std.Reset() }

// ---------------------------------------------------------------------
// Snapshots.

// Snapshot is a point-in-time copy of a registry. Maps marshal with
// sorted keys under encoding/json, so two snapshots with equal values
// serialize to identical bytes regardless of registration or scheduling
// order.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values. Each metric is read
// atomically; the snapshot as a whole is not a consistent cut across
// metrics, which is fine for the quiescent-at-exit use it serves.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Capture returns the default registry's snapshot.
func Capture() Snapshot { return std.Snapshot() }

// WriteJSON serializes the snapshot as indented JSON. Keys appear in
// sorted order (encoding/json's map behaviour), making the output
// byte-stable for equal values.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// FilterPrefix returns a snapshot containing only the series whose
// names begin with prefix — how a renderer scopes one subsystem's
// section of a dump (emscope serve prints stream.daemon.* this way).
func (s Snapshot) FilterPrefix(prefix string) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, prefix) {
			out.Gauges[name] = v
		}
	}
	for name, v := range s.Histograms {
		if strings.HasPrefix(name, prefix) {
			out.Histograms[name] = v
		}
	}
	return out
}

// Delta returns the change from prev to s — what happened between two
// scrapes. Counters and histogram counts subtract; gauges are
// instantaneous levels, so the delta carries s's current value
// unchanged. A series absent from prev (it registered after the last
// scrape) or whose count went backwards (a Reset in between) reports
// its full current value. The key set is s's: series that existed only
// in prev are dropped, mirroring Snapshot's "key set reflects what ran"
// contract.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		if p, ok := prev.Counters[name]; ok && p <= v {
			out.Counters[name] = v - p
		} else {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		if p, ok := prev.Histograms[name]; ok && p.Count <= h.Count {
			out.Histograms[name] = h.sub(p)
		} else {
			out.Histograms[name] = h
		}
	}
	return out
}

// CounterNames returns the snapshot's counter keys in sorted order —
// the iteration order every renderer should use.
func (s Snapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// GaugeNames returns the snapshot's gauge keys in sorted order.
func (s Snapshot) GaugeNames() []string { return sortedKeys(s.Gauges) }

// HistogramNames returns the snapshot's histogram keys in sorted order.
func (s Snapshot) HistogramNames() []string { return sortedKeys(s.Histograms) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
