package core

import (
	"fmt"
	"sync"

	"pmuleak/internal/covert"
	"pmuleak/internal/laptop"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// txTrace is the transmitter half of a covert run: everything computed
// before the EM field enters the propagation channel. It depends only on
// (laptop profile, seed, radio sample rate, transmitter-side covert
// config) — the channel config and the receiver config are never read —
// which is what makes it safe to memoize and replay through different
// channels and receivers. The receiver's randomness is independently
// seeded (tb.Seed + 104729), so a replayed trace consumes exactly the
// random stream the serial path would have.
type txTrace struct {
	field   []complex128 // sys.Emanations output, pre-channel
	plan    laptop.EmanationPlan
	run     *covert.TxRun
	payload []byte
	txCfg   covert.TXConfig
}

// simulateTxTrace runs the transmitter side from scratch: kernel
// simulation, EM synthesis, nothing channel- or receiver-dependent.
// cfg must already be filled (cfg.fill). The two transmitter-side
// pipeline stages are spanned separately: stage.simulate is the kernel
// and PMU simulation, stage.emit the VRM/EM field synthesis.
func (tb *Testbed) simulateTxTrace(cfg CovertConfig) *txTrace {
	simSpan := stageSimulate.Start()
	sys := laptop.NewSystem(tb.Profile, tb.Seed)
	defer sys.Close()

	txCfg := covert.DefaultTXConfig(cfg.SleepPeriod)
	if cfg.Code != covert.CodeHamming74 {
		txCfg.Code = cfg.Code
	}
	txCfg.InterleaveDepth = cfg.Interleave
	payload := cfg.Payload
	if payload == nil {
		payload = xrand.New(tb.Seed + 7919).Bits(cfg.PayloadBits)
	}
	frame := covert.EncodeFrame(payload, txCfg)
	run := covert.SpawnTransmitter(sys.Kernel(), frame, txCfg)

	if cfg.Background {
		spawnBackgroundHog(sys.Kernel(), tb.Seed+31)
	}

	horizon := covert.AirtimeEstimate(frame, txCfg, tb.Profile.Kernel)
	sys.Run(horizon)
	simSpan.End()

	emitSpan := stageEmit.Start()
	plan := sys.DefaultPlan()
	plan.SampleRate = tb.Radio.SampleRate
	field := sys.Emanations(horizon, plan)
	emitSpan.End()
	return &txTrace{field: field, plan: plan, run: run, payload: payload, txCfg: txCfg}
}

// traceKey encodes every input the transmitter path reads. Profile is
// not map-comparable (it embeds P-/C-state tables as slices) and has a
// Stringer that prints only the model name, so its fields are formatted
// individually — the nested configs have no Stringers of their own and
// render in full under %+v. The rest of the key is the seed, the radio
// sample rate (the one radio field the tx path reads, via the emanation
// plan), and the tx-side covert config fields. Receiver-side fields
// (RXHarmonics, RXResync, Faults) and the channel config are
// deliberately absent — varying them must hit the cache.
func traceKey(tb *Testbed, cfg CovertConfig) string {
	p := tb.Profile
	return fmt.Sprintf("%s|%s|%+v|%+v|%+v|%v|%v|%v|%v|%d|%d|%d|%g|%d|%d|%x|%d|%t|%d",
		p.Model, p.Arch, p.Kernel, p.Power, p.VRM,
		p.EmitterGain, p.PhaseNoiseSigma, p.CarrierDriftHzPerS, p.VRMDitherHz,
		p.DVFSWindow, p.DefaultSleepPeriod,
		tb.Seed, tb.Radio.SampleRate,
		cfg.SleepPeriod, cfg.PayloadBits, cfg.Payload,
		cfg.Code, cfg.Background, cfg.Interleave)
}

// The process-wide transmitter-trace cache: a small LRU of memoized
// traces with per-entry singleflight, so concurrent sweep cells that
// share a transmitter configuration simulate it once and replay it.
// Fields are a few MB each at quick scale (tens at paper scale), so the
// cache is deliberately tiny — sweeps that vary only receiver-side
// parameters need exactly one entry live at a time.
type traceEntry struct {
	once sync.Once
	tr   *txTrace
	used int64 // LRU tick, guarded by traceMu
}

// traceCap is the cache's entry capacity: large enough for
// receiver-side sweeps over the Table I laptops, small enough that
// paper-scale fields do not pin gigabytes.
const traceCap = 8

var (
	traceMu      sync.Mutex
	traceEntries = make(map[string]*traceEntry)
	traceTick    int64
	// The hit/miss counters live on the telemetry registry (the -metrics
	// snapshot's core.tracecache.* series); TraceCacheStats remains as a
	// thin shim over them. Both are bumped under traceMu. hits+misses
	// (total lookups) is deterministic for a given workload at every
	// -jobs setting; the split between them is only deterministic while
	// the working set fits in traceCap — once eviction starts, the LRU
	// victim depends on concurrent access order, and an evicted key's
	// next lookup is a re-miss.
	traceHits      = telemetry.NewCounter("core.tracecache.hits")
	traceMisses    = telemetry.NewCounter("core.tracecache.misses")
	traceEvictions = telemetry.NewCounter("core.tracecache.evictions")
	traceLive      = telemetry.NewGauge("core.tracecache.entries")
)

// TraceCacheStats returns the cumulative hit and miss counts since the
// last ResetTraceCache. A miss is a simulation; a hit is a replay. It
// is a thin shim over the telemetry registry's core.tracecache.hits and
// core.tracecache.misses counters, kept for callers that predate the
// telemetry layer.
func TraceCacheStats() (hits, misses uint64) {
	return traceHits.Load(), traceMisses.Load()
}

// ResetTraceCache drops every cached trace and zeroes the cache's
// telemetry counters.
func ResetTraceCache() {
	traceMu.Lock()
	traceEntries = make(map[string]*traceEntry)
	traceTick = 0
	traceLive.Set(0)
	traceMu.Unlock()
	traceHits.Reset()
	traceMisses.Reset()
	traceEvictions.Reset()
}

// transmitterTrace returns the transmitter trace for (tb, cfg) from the
// cache, simulating it on a miss. The trace is shared across runs: its
// field buffer must never be mutated or recycled.
func (tb *Testbed) transmitterTrace(cfg CovertConfig) *txTrace {
	key := traceKey(tb, cfg)
	traceMu.Lock()
	e, ok := traceEntries[key]
	if !ok {
		if len(traceEntries) >= traceCap {
			evictOldestLocked()
		}
		e = &traceEntry{}
		traceEntries[key] = e
		traceLive.Set(int64(len(traceEntries)))
		traceMisses.Inc()
	} else {
		traceHits.Inc()
	}
	traceTick++
	e.used = traceTick
	traceMu.Unlock()
	// Singleflight: concurrent cells wanting the same trace block here
	// while exactly one simulates it.
	e.once.Do(func() { e.tr = tb.simulateTxTrace(cfg) })
	return e.tr
}

// evictOldestLocked drops the least-recently-used entry. The evicted
// trace's field buffer goes to the garbage collector, never to the
// sample-buffer pool: a concurrent replay may still hold it.
func evictOldestLocked() {
	var (
		oldKey string
		oldUse int64 = 1<<63 - 1
	)
	for k, e := range traceEntries {
		if e.used < oldUse {
			oldUse = e.used
			oldKey = k
		}
	}
	delete(traceEntries, oldKey)
	traceEvictions.Inc()
}
