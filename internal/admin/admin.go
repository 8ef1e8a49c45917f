// Package admin is the daemon's live introspection plane: an opt-in
// HTTP listener (`emscope -mode serve -admin :port`) that answers the
// questions process-exit stderr cannot — what is this daemon doing
// right now, and what has changed since I last looked.
//
// Endpoints:
//
//   - /metrics — the full telemetry snapshot, byte-identical to what
//     Snapshot.WriteJSON produces for the same values (the same
//     serializer paperbench -metrics uses, so every offline consumer
//     of -metrics files reads scrapes unchanged). With ?delta=1 the
//     response is the change since the previous delta scrape
//     (Snapshot.Delta): counters and histogram counts subtract, gauges
//     stay instantaneous levels.
//
//   - /healthz — liveness AND readiness as JSON: live is "is the
//     process serving" (always true when you got an answer), ready is
//     "is every stream healthy" — quarantined streams (a processor
//     panic, or a source that stalled or failed), shed chunks, and
//     checkpoint write errors flip status from "ok" to "degraded" with
//     the evidence in the body, so a probe distinguishes a healthy
//     daemon from one silently losing work.
//
//   - /streams — the per-stream view of the capture daemon, assembled
//     from the stream.daemon.<name>.* series: chunks, samples, stalls,
//     live queue depth, and chunk-latency count/mean/p50/p99 from the
//     dispatch-loop histograms.
//
//   - /debug/pprof/ — the standard runtime profiles.
//
// The plane is read-only and holds no lock any recording path takes:
// handlers see the same atomically-read snapshots every other renderer
// sees, so scraping cannot perturb the measurement (the package
// telemetry doc's "recording must be cheap enough to leave on" applies
// to observation too).
package admin

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"pmuleak/internal/telemetry"
)

// Server is one admin plane instance. The zero value is not usable;
// call New.
type Server struct {
	source func() telemetry.Snapshot
	mux    *http.ServeMux
	http   *http.Server
	start  time.Time

	mu      sync.Mutex
	last    telemetry.Snapshot // previous ?delta=1 scrape
	hasLast bool
}

// Option customizes a Server.
type Option func(*Server)

// WithSource overrides where snapshots come from (default
// telemetry.Capture). Tests pin a fixed registry this way.
func WithSource(f func() telemetry.Snapshot) Option {
	return func(s *Server) { s.source = f }
}

// New assembles an admin server. It does not listen; call Serve with a
// listener (or use Handler under a test server).
func New(opts ...Option) *Server {
	s := &Server{
		source: telemetry.Capture,
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/streams", s.handleStreams)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Handler exposes the route table for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve answers requests on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, matching net/http.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown gracefully stops the server.
func (s *Server) Shutdown(ctx context.Context) error { return s.http.Shutdown(ctx) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	view := BuildHealthView(s.source())
	view.UptimeMS = time.Since(s.start).Milliseconds()
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(b, '\n'))
}

// HealthView is the /healthz response body. Live is plain liveness;
// Ready means no stream is quarantined, whether a processor panicked or
// its source stalled or failed. Status summarizes: "ok" when ready and
// no chunk was shed and no checkpoint write failed, "degraded"
// otherwise — a daemon that is up but has lost work says so rather
// than "ok".
type HealthView struct {
	Status           string   `json:"status"`
	Live             bool     `json:"live"`
	Ready            bool     `json:"ready"`
	UptimeMS         int64    `json:"uptime_ms"`
	Quarantined      []string `json:"quarantined"`
	ShedChunks       uint64   `json:"shed_chunks"`
	AttachRejected   uint64   `json:"attach_rejected"`
	CheckpointErrors uint64   `json:"checkpoint_errors"`
}

// BuildHealthView derives the degraded-state summary from a telemetry
// snapshot: the per-stream stream.daemon.<name>.quarantined gauges name
// the quarantined streams, and the stream.shed.* and
// stream.checkpoint.* totals quantify what was lost. Pure function of
// the snapshot (UptimeMS is the caller's).
func BuildHealthView(snap telemetry.Snapshot) HealthView {
	view := HealthView{
		Live:             true,
		Quarantined:      []string{},
		ShedChunks:       snap.Counters["stream.shed.chunks"],
		AttachRejected:   snap.Counters["stream.shed.attach_rejected"],
		CheckpointErrors: snap.Counters["stream.checkpoint.errors"],
	}
	const prefix = "stream.daemon."
	const suffix = ".quarantined"
	for series, v := range snap.Gauges {
		if v != 0 && strings.HasPrefix(series, prefix) && strings.HasSuffix(series, suffix) {
			view.Quarantined = append(view.Quarantined, series[len(prefix):len(series)-len(suffix)])
		}
	}
	sort.Strings(view.Quarantined)
	view.Ready = len(view.Quarantined) == 0
	if view.Ready && view.ShedChunks == 0 && view.CheckpointErrors == 0 {
		view.Status = "ok"
	} else {
		view.Status = "degraded"
	}
	return view
}

// handleMetrics serves the snapshot through the exact WriteJSON
// serializer, so a scrape is byte-identical to a -metrics file of the
// same values. ?delta=1 serves the change since the previous delta
// scrape; the first delta scrape returns the full snapshot (delta from
// empty).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.source()
	if r.URL.Query().Get("delta") != "" {
		s.mu.Lock()
		out := snap
		if s.hasLast {
			out = snap.Delta(s.last)
		}
		s.last = snap
		s.hasLast = true
		s.mu.Unlock()
		snap = out
	}
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// StreamInfo is one capture stream's row of the /streams view.
type StreamInfo struct {
	Name        string `json:"name"`
	Chunks      uint64 `json:"chunks"`
	Samples     uint64 `json:"samples"`
	Stalls      uint64 `json:"stalls"`
	Shed        uint64 `json:"shed"`
	Quarantined bool   `json:"quarantined"`
	QueueDepth  int64  `json:"queue_depth"`
	// Chunk-latency digest from the dispatch-loop histogram. The
	// quantile bounds carry the histogram's 2x bucket resolution.
	ChunkCount  uint64 `json:"chunk_count"`
	ChunkMeanNs int64  `json:"chunk_mean_ns"`
	ChunkP50Ns  int64  `json:"chunk_p50_ns"`
	ChunkP99Ns  int64  `json:"chunk_p99_ns"`
}

// StreamsView is the /streams response body.
type StreamsView struct {
	ActiveStreams int64        `json:"active_streams"`
	Dispatches    uint64       `json:"dispatches"`
	Streams       []StreamInfo `json:"streams"`
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	view := BuildStreamsView(s.source())
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(b, '\n'))
}

// BuildStreamsView assembles the per-stream daemon view from the
// stream.daemon.* series of a snapshot. Streams come out sorted by
// name, so the view is deterministic for equal snapshots.
func BuildStreamsView(snap telemetry.Snapshot) StreamsView {
	const prefix = "stream.daemon."
	view := StreamsView{
		ActiveStreams: snap.Gauges[prefix+"active_streams"],
		Dispatches:    snap.Counters[prefix+"dispatches"],
		Streams:       []StreamInfo{},
	}
	scoped := snap.FilterPrefix(prefix)
	byName := map[string]*StreamInfo{}
	get := func(series string) (*StreamInfo, string) {
		// series is "<name>.<field>"; global series without a dot (or
		// the two daemon-level ones above) have no stream row.
		i := strings.LastIndex(series, ".")
		if i <= 0 {
			return nil, ""
		}
		name, field := series[:i], series[i+1:]
		info := byName[name]
		if info == nil {
			info = &StreamInfo{Name: name}
			byName[name] = info
		}
		return info, field
	}
	for series, v := range scoped.Counters {
		info, field := get(strings.TrimPrefix(series, prefix))
		if info == nil {
			continue
		}
		switch field {
		case "chunks":
			info.Chunks = v
		case "samples":
			info.Samples = v
		case "stalls":
			info.Stalls = v
		case "shed":
			info.Shed = v
		}
	}
	for series, v := range scoped.Gauges {
		info, field := get(strings.TrimPrefix(series, prefix))
		if info == nil {
			continue
		}
		switch field {
		case "queue_depth":
			info.QueueDepth = v
		case "quarantined":
			info.Quarantined = v != 0
		}
	}
	for series, h := range scoped.Histograms {
		if info, field := get(strings.TrimPrefix(series, prefix)); info != nil && field == "chunk" {
			info.ChunkCount = h.Count
			info.ChunkMeanNs = int64(h.Mean())
			info.ChunkP50Ns = int64(h.Quantile(0.50))
			info.ChunkP99Ns = int64(h.Quantile(0.99))
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		view.Streams = append(view.Streams, *byName[name])
	}
	return view
}
