package admin

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pmuleak/internal/telemetry"
)

// fixedRegistry builds a registry with a known shape: two daemon
// streams plus unrelated series, the mix the handlers must slice up.
func fixedRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.Counter("stream.daemon.dispatches").Add(11)
	r.Gauge("stream.daemon.active_streams").Set(2)
	for _, s := range []struct {
		name            string
		chunks, samples uint64
		stalls          uint64
		depth           int64
	}{
		{"cov0", 7, 7 * 4096, 1, 3},
		{"key1", 5, 5 * 4096, 0, 0},
	} {
		r.Counter("stream.daemon." + s.name + ".chunks").Add(s.chunks)
		r.Counter("stream.daemon." + s.name + ".samples").Add(s.samples)
		r.Counter("stream.daemon." + s.name + ".stalls").Add(s.stalls)
		r.Gauge("stream.daemon." + s.name + ".queue_depth").Set(s.depth)
		h := r.Histogram("stream.daemon." + s.name + ".chunk")
		for i := uint64(0); i < s.chunks; i++ {
			h.Observe(700 * time.Microsecond)
		}
	}
	r.Counter("sdr.samples").Add(123456)
	return r
}

func testServer(t *testing.T, r *telemetry.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(WithSource(r.Snapshot)).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return body
}

// TestMetricsByteIdenticalToWriteJSON is the acceptance criterion: a
// /metrics scrape must serve the exact bytes Snapshot.WriteJSON
// produces for the same values — the admin plane and the -metrics file
// are one format, not two.
func TestMetricsByteIdenticalToWriteJSON(t *testing.T) {
	r := fixedRegistry()
	srv := testServer(t, r)

	var want bytes.Buffer
	if err := r.Snapshot().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	got := get(t, srv.URL+"/metrics")
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("/metrics diverged from Snapshot.WriteJSON\nwant %d bytes:\n%s\ngot %d bytes:\n%s",
			want.Len(), want.String(), len(got), got)
	}
}

// TestMetricsDelta: the first delta scrape returns the full snapshot,
// later ones only the change since the previous delta scrape, with
// gauges passing through as levels.
func TestMetricsDelta(t *testing.T) {
	r := fixedRegistry()
	srv := testServer(t, r)

	var first telemetry.Snapshot
	if err := json.Unmarshal(get(t, srv.URL+"/metrics?delta=1"), &first); err != nil {
		t.Fatalf("first delta scrape is not JSON: %v", err)
	}
	if first.Counters["stream.daemon.dispatches"] != 11 {
		t.Fatalf("first delta scrape dispatches = %d, want full value 11",
			first.Counters["stream.daemon.dispatches"])
	}

	r.Counter("stream.daemon.dispatches").Add(4)
	r.Gauge("stream.daemon.cov0.queue_depth").Set(9)
	var second telemetry.Snapshot
	if err := json.Unmarshal(get(t, srv.URL+"/metrics?delta=1"), &second); err != nil {
		t.Fatalf("second delta scrape is not JSON: %v", err)
	}
	if second.Counters["stream.daemon.dispatches"] != 4 {
		t.Fatalf("second delta dispatches = %d, want 4", second.Counters["stream.daemon.dispatches"])
	}
	if second.Counters["sdr.samples"] != 0 {
		t.Fatalf("untouched counter delta = %d, want 0", second.Counters["sdr.samples"])
	}
	if second.Gauges["stream.daemon.cov0.queue_depth"] != 9 {
		t.Fatalf("gauge in delta = %d, want instantaneous 9",
			second.Gauges["stream.daemon.cov0.queue_depth"])
	}

	// A plain /metrics scrape between deltas must not advance the delta
	// baseline.
	get(t, srv.URL+"/metrics")
	r.Counter("stream.daemon.dispatches").Add(2)
	var third telemetry.Snapshot
	if err := json.Unmarshal(get(t, srv.URL+"/metrics?delta=1"), &third); err != nil {
		t.Fatal(err)
	}
	if third.Counters["stream.daemon.dispatches"] != 2 {
		t.Fatalf("third delta dispatches = %d, want 2", third.Counters["stream.daemon.dispatches"])
	}
}

// TestStreamsView: the per-stream assembly from stream.daemon.* series,
// sorted by name, with the latency digest wired to the histogram.
func TestStreamsView(t *testing.T) {
	r := fixedRegistry()
	srv := testServer(t, r)

	var view StreamsView
	if err := json.Unmarshal(get(t, srv.URL+"/streams"), &view); err != nil {
		t.Fatalf("/streams is not JSON: %v", err)
	}
	if view.ActiveStreams != 2 || view.Dispatches != 11 {
		t.Fatalf("daemon-level fields = (%d, %d), want (2, 11)", view.ActiveStreams, view.Dispatches)
	}
	if len(view.Streams) != 2 || view.Streams[0].Name != "cov0" || view.Streams[1].Name != "key1" {
		t.Fatalf("streams = %+v, want sorted [cov0 key1]", view.Streams)
	}
	cov := view.Streams[0]
	if cov.Chunks != 7 || cov.Samples != 7*4096 || cov.Stalls != 1 || cov.QueueDepth != 3 {
		t.Fatalf("cov0 row = %+v", cov)
	}
	if cov.ChunkCount != 7 || cov.ChunkP50Ns == 0 || cov.ChunkP99Ns < cov.ChunkP50Ns {
		t.Fatalf("cov0 latency digest = %+v", cov)
	}
	// All 700us observations share one power-of-two bucket, so p50 and
	// p99 agree on its bound.
	if cov.ChunkP50Ns != cov.ChunkP99Ns {
		t.Fatalf("single-bucket quantiles disagree: p50 %d, p99 %d", cov.ChunkP50Ns, cov.ChunkP99Ns)
	}
}

// TestHealthzAndPprof: a healthy registry reports status ok with
// live+ready set, and the pprof index is wired.
func TestHealthzAndPprof(t *testing.T) {
	srv := testServer(t, fixedRegistry())
	var view HealthView
	if err := json.Unmarshal(get(t, srv.URL+"/healthz"), &view); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if view.Status != "ok" || !view.Live || !view.Ready {
		t.Fatalf("healthy daemon /healthz = %+v, want status ok, live, ready", view)
	}
	if len(view.Quarantined) != 0 || view.ShedChunks != 0 {
		t.Fatalf("healthy daemon reports degradation: %+v", view)
	}
	if body := get(t, srv.URL+"/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/ index missing profiles: %q", body)
	}
}

// TestHealthzDegraded: quarantined streams and shed counts flip the
// status and are itemized in the body — the probe sees exactly which
// streams died and how much work was lost.
func TestHealthzDegraded(t *testing.T) {
	r := fixedRegistry()
	r.Gauge("stream.daemon.key1.quarantined").Set(1)
	r.Gauge("stream.daemon.cov0.quarantined").Set(0)
	r.Counter("stream.shed.chunks").Add(3)
	srv := testServer(t, r)

	var view HealthView
	if err := json.Unmarshal(get(t, srv.URL+"/healthz"), &view); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if view.Status != "degraded" || !view.Live || view.Ready {
		t.Fatalf("degraded daemon /healthz = %+v, want status degraded, live, not ready", view)
	}
	if len(view.Quarantined) != 1 || view.Quarantined[0] != "key1" {
		t.Fatalf("quarantined list = %v, want [key1]", view.Quarantined)
	}
	if view.ShedChunks != 3 {
		t.Fatalf("loss counters = %+v, want shed 3", view)
	}

	// /streams carries the same degradation per row.
	var sview StreamsView
	if err := json.Unmarshal(get(t, srv.URL+"/streams"), &sview); err != nil {
		t.Fatal(err)
	}
	for _, row := range sview.Streams {
		if want := row.Name == "key1"; row.Quarantined != want {
			t.Fatalf("stream %s quarantined = %v, want %v", row.Name, row.Quarantined, want)
		}
	}
}
