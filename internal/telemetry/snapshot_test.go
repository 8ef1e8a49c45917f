package telemetry

import (
	"testing"
	"time"
)

// TestFilterPrefixEdgeCases pins the three boundary behaviours a
// renderer can hit: the empty prefix (everything passes), a prefix
// matching nothing (empty but non-nil maps, so callers can range and
// marshal without nil checks), and a prefix equal to a full series name
// (strings.HasPrefix is true for equality, so the series is included —
// the admin plane's /streams handler relies on this when a stream name
// is itself a prefix of another).
func TestFilterPrefixEdgeCases(t *testing.T) {
	r := NewRegistry()
	r.Counter("stream.daemon.a.chunks").Add(3)
	r.Counter("stream.daemon.a.chunks2").Add(9)
	r.Gauge("stream.daemon.a.queue_depth").Set(2)
	r.Histogram("stream.daemon.a.chunk").Observe(time.Millisecond)
	snap := r.Snapshot()

	all := snap.FilterPrefix("")
	if len(all.Counters) != 2 || len(all.Gauges) != 1 || len(all.Histograms) != 1 {
		t.Fatalf("empty prefix filtered something: %d counters, %d gauges, %d histograms",
			len(all.Counters), len(all.Gauges), len(all.Histograms))
	}

	none := snap.FilterPrefix("zz.nothing")
	if none.Counters == nil || none.Gauges == nil || none.Histograms == nil {
		t.Fatal("unmatched prefix returned nil maps")
	}
	if len(none.Counters)+len(none.Gauges)+len(none.Histograms) != 0 {
		t.Fatalf("unmatched prefix kept series: %v %v %v",
			none.CounterNames(), none.GaugeNames(), none.HistogramNames())
	}

	exact := snap.FilterPrefix("stream.daemon.a.chunks")
	if got := exact.CounterNames(); len(got) != 2 {
		// "...chunks" is a prefix of "...chunks2" as well as equal to
		// itself; both must survive.
		t.Fatalf("exact-name prefix kept %v, want both chunk counters", got)
	}
	if exact.Counters["stream.daemon.a.chunks"] != 3 {
		t.Fatalf("exact-name prefix lost the equal-name series: %v", exact.Counters)
	}
	if len(exact.Gauges) != 0 || len(exact.Histograms) != 0 {
		t.Fatalf("exact-name prefix kept unrelated kinds: %v %v",
			exact.GaugeNames(), exact.HistogramNames())
	}
}

// TestQuantileBasics pins the accessor's contract: empty histograms
// report 0, p is clamped, and the result is the power-of-two bucket
// bound directly above the observation.
func TestQuantileBasics(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", got)
	}

	h := &Histogram{}
	h.Observe(700 * time.Nanosecond) // bucket (512, 1024]
	s := h.snapshot()
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(p); got != 1024*time.Nanosecond {
			t.Fatalf("Quantile(%v) = %v, want 1024ns", p, got)
		}
	}
	if got := h.Quantile(0.5); got != s.Quantile(0.5) {
		t.Fatalf("Histogram.Quantile = %v, snapshot Quantile = %v", got, s.Quantile(0.5))
	}

	// 90 fast observations and 10 slow ones: p50 must sit in the fast
	// bucket, p99 in the slow one.
	h2 := &Histogram{}
	for i := 0; i < 90; i++ {
		h2.Observe(3 * time.Microsecond) // bucket bound 4096 ns
	}
	for i := 0; i < 10; i++ {
		h2.Observe(3 * time.Millisecond) // bucket bound 4194304 ns
	}
	s2 := h2.snapshot()
	if got := s2.Quantile(0.50); got != 4096*time.Nanosecond {
		t.Fatalf("p50 = %v, want 4096ns", got)
	}
	if got := s2.Quantile(0.99); got != 4194304*time.Nanosecond {
		t.Fatalf("p99 = %v, want ~4.2ms bound", got)
	}
}

// TestSnapshotDelta pins the scrape-to-scrape semantics the admin
// plane's /metrics?delta=1 endpoint serves: counters and histograms
// subtract, gauges pass through as levels, series new since the last
// scrape (or reset below it) report their full current value, and
// series that vanished are dropped.
func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work.items")
	g := r.Gauge("work.depth")
	h := r.Histogram("work.lat")
	c.Add(10)
	g.Set(3)
	h.Observe(time.Microsecond)
	prev := r.Snapshot()

	c.Add(7)
	g.Set(1)
	h.Observe(time.Microsecond)
	h.Observe(time.Minute)
	r.Counter("work.new").Add(4)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if d.Counters["work.items"] != 7 {
		t.Errorf("counter delta = %d, want 7", d.Counters["work.items"])
	}
	if d.Counters["work.new"] != 4 {
		t.Errorf("new counter delta = %d, want full value 4", d.Counters["work.new"])
	}
	if d.Gauges["work.depth"] != 1 {
		t.Errorf("gauge delta = %d, want instantaneous 1", d.Gauges["work.depth"])
	}
	lat := d.Histograms["work.lat"]
	if lat.Count != 2 {
		t.Errorf("histogram delta count = %d, want 2", lat.Count)
	}
	var bucketSum uint64
	for _, b := range lat.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != lat.Count {
		t.Errorf("histogram delta buckets sum to %d, want %d", bucketSum, lat.Count)
	}
	if lat.SumNs != int64(time.Microsecond)+int64(time.Minute) {
		t.Errorf("histogram delta sum = %d", lat.SumNs)
	}

	// A reset between scrapes must not underflow: the delta is the full
	// post-reset value.
	c.Reset()
	c.Add(2)
	h.Reset()
	h.Observe(time.Millisecond)
	after := r.Snapshot().Delta(cur)
	if after.Counters["work.items"] != 2 {
		t.Errorf("post-reset counter delta = %d, want 2", after.Counters["work.items"])
	}
	if after.Histograms["work.lat"].Count != 1 {
		t.Errorf("post-reset histogram delta count = %d, want 1", after.Histograms["work.lat"].Count)
	}

	// Series present only in prev are dropped from the delta.
	if _, ok := prev.Delta(cur).Counters["work.new"]; ok {
		// prev has no work.new, so this direction must not include it...
		t.Error("delta invented a series absent from the current snapshot")
	}
}
