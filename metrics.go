package poseidon

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/jit"
	"poseidon/internal/pmem"
	"poseidon/internal/telemetry"
	"poseidon/internal/trace"
)

// TelemetryConfig enables and tunes the engine-wide measurement
// substrate: metrics (exposed through DB.Metrics and the Prometheus
// endpoint), per-query stage traces, and the slow-query log. When
// Enabled is false (the default), the engine holds nil metric handles
// everywhere and the hot paths pay a single branch — no allocation, no
// atomic write.
type TelemetryConfig struct {
	// Enabled turns telemetry on.
	Enabled bool
	// SlowQueryThreshold is the total-latency threshold above which a
	// query's full stage trace is retained (default 100ms; negative
	// disables the slow-query log while keeping metrics).
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the slow-query ring buffer (default 64).
	SlowQueryLogSize int
	// Trace enables per-request span tracing (see TraceConfig). It is
	// independent of Enabled: tracing can run without the metrics
	// registry, and vice versa.
	Trace TraceConfig
}

// defaultSlowQueryThreshold applies when TelemetryConfig leaves it 0.
const defaultSlowQueryThreshold = 100 * time.Millisecond

// dbTelemetry bundles the registry, the facade-level metric handles and
// the slow-query log. A nil *dbTelemetry is the disabled state.
type dbTelemetry struct {
	reg  *telemetry.Registry
	slow *telemetry.SlowQueryLog

	// Facade (query/session) handles.
	queriesTotal   [4]*telemetry.Counter // indexed by ExecMode
	queryErrors    *telemetry.Counter
	rowsStreamed   *telemetry.Counter
	slowQueries    *telemetry.Counter
	queryLatency   *telemetry.Histogram
	sessionsActive *telemetry.Gauge

	// Lower-layer handles are kept here too so Metrics() can snapshot
	// them without reaching into the subsystems.
	coreTel core.Telemetry
	jitTel  jit.Telemetry

	// server holds the network-front-door handles once RegisterServer
	// has been called (nil on an in-process-only DB).
	server *ServerTelemetry
}

// newDBTelemetry builds the registry, registers every metric family in
// exposition order, and installs the handles into the core and JIT
// engines. Returns nil when telemetry is disabled.
func newDBTelemetry(db *DB, cfg TelemetryConfig) *dbTelemetry {
	if !cfg.Enabled {
		return nil
	}
	threshold := cfg.SlowQueryThreshold
	if threshold == 0 {
		threshold = defaultSlowQueryThreshold
	}
	reg := telemetry.NewRegistry()
	t := &dbTelemetry{
		reg:  reg,
		slow: telemetry.NewSlowQueryLog(threshold, cfg.SlowQueryLogSize),
	}

	// PMem device counters are sampled from the device's own atomics at
	// scrape time — re-exporting them costs the hot path nothing.
	stats := &db.engine.Device().Stats
	// The per-access counters are striped; Snapshot sums them.
	devCounter := func(name, help string, pick func(pmem.StatsSnapshot) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return pick(stats.Snapshot()) })
	}
	devCounter("poseidon_pmem_reads_total", "8-byte loads from the (P)Mem device.", func(s pmem.StatsSnapshot) uint64 { return s.Reads })
	devCounter("poseidon_pmem_writes_total", "8-byte stores to the (P)Mem device.", func(s pmem.StatsSnapshot) uint64 { return s.Writes })
	devCounter("poseidon_pmem_cache_hits_total", "Device loads served by the simulated CPU cache.", func(s pmem.StatsSnapshot) uint64 { return s.CacheHits })
	devCounter("poseidon_pmem_cache_misses_total", "Device loads that paid the media read latency.", func(s pmem.StatsSnapshot) uint64 { return s.CacheMisses })
	devCounter("poseidon_pmem_line_flushes_total", "clwb-equivalent cache-line flushes.", func(s pmem.StatsSnapshot) uint64 { return s.LineFlushes })
	reg.CounterFunc("poseidon_pmem_block_writes_total", "256-byte internal media block writes (write amplification, C3).", stats.BlockWrites.Load)
	reg.CounterFunc("poseidon_pmem_drains_total", "sfence-equivalent persistence barriers.", stats.Drains.Load)
	reg.CounterFunc("poseidon_pmem_crashes_total", "Simulated power failures.", stats.Crashes.Load)

	// MVTO transaction counters.
	t.coreTel.TxBegun = reg.Counter("poseidon_tx_begun_total", "Transactions started.")
	t.coreTel.TxCommits = reg.Counter("poseidon_tx_commits_total", "Transactions committed (including read-only).")
	for r := 0; r < core.NumAbortReasons; r++ {
		reason := core.AbortReason(r)
		t.coreTel.TxAborts[r] = reg.Counter("poseidon_tx_aborts_total",
			"Transactions aborted, by MVTO reason.",
			telemetry.Label{Key: "reason", Value: reason.String()})
	}
	reg.GaugeFunc("poseidon_txs_active", "Transactions currently in flight.",
		func() float64 { return float64(db.engine.ActiveTxs()) })

	// Sharded-core contention and balance series, sampled from the
	// engine's per-shard atomics at scrape time. The shard count is fixed
	// at open, so one labelled series per shard is known up front.
	reg.GaugeFunc("poseidon_shards", "Configured shard count of the engine core.",
		func() float64 { return float64(db.engine.Shards()) })
	reg.CounterFunc("poseidon_shard_cross_commits_total",
		"Commits whose lock set spanned more than one shard.",
		func() uint64 { _, cross := db.engine.ShardStatsSnapshot(); return cross })
	for s := 0; s < db.engine.Shards(); s++ {
		s := s
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(s)}
		reg.CounterFunc("poseidon_shard_commits_total",
			"Commits whose lock set included the shard.",
			func() uint64 { st, _ := db.engine.ShardStatsSnapshot(); return st[s].Commits }, lbl)
		reg.CounterFunc("poseidon_shard_lock_wait_ns_total",
			"Cumulative wait for the shard's commit lock, in nanoseconds.",
			func() uint64 { st, _ := db.engine.ShardStatsSnapshot(); return st[s].LockWaitNs }, lbl)
		reg.CounterFunc("poseidon_shard_lock_contended_total",
			"Commit-lock acquisitions that found the lock held (TryLock miss).",
			func() uint64 { st, _ := db.engine.ShardStatsSnapshot(); return st[s].LockContended }, lbl)
		reg.CounterFunc("poseidon_shard_inserts_total",
			"Records placed in the shard at operation time.",
			func() uint64 { st, _ := db.engine.ShardStatsSnapshot(); return st[s].HomeInserts }, lbl)
	}
	reg.GaugeFunc("poseidon_shard_commit_imbalance",
		"Max-over-mean per-shard commit count (1.0 = perfectly balanced, 0 = no commits).",
		func() float64 {
			st, _ := db.engine.ShardStatsSnapshot()
			var total, max uint64
			for _, s := range st {
				total += s.Commits
				if s.Commits > max {
					max = s.Commits
				}
			}
			if total == 0 {
				return 0
			}
			return float64(max) * float64(len(st)) / float64(total)
		})
	t.coreTel.ChainWalk = reg.Histogram("poseidon_mvto_chain_walk_length",
		"Versions inspected per DRAM version-chain lookup.",
		telemetry.LengthBuckets(64), 1)

	// Commit-epoch counters, sampled from the engine's atomics. Every
	// write commit is an epoch member, alone or with others.
	reg.CounterFunc("poseidon_group_commit_epochs_total",
		"Commit epochs persisted.",
		func() uint64 { ep, _, _ := db.engine.GroupCommitStats(); return ep })
	reg.CounterFunc("poseidon_group_commit_txs_total",
		"Transactions committed through them.",
		func() uint64 { _, txs, _ := db.engine.GroupCommitStats(); return txs })
	reg.CounterFunc("poseidon_group_commit_splits_total",
		"Epochs split to fit the shard undo-log lane budget.",
		func() uint64 { _, _, sp := db.engine.GroupCommitStats(); return sp })

	// JIT compiler counters.
	t.jitTel.Compiles = reg.Counter("poseidon_jit_compiles_total", "Full plan compilations (both cache tiers missed).")
	t.jitTel.CompileTime = reg.Histogram("poseidon_jit_compile_seconds",
		"Full-compilation wall time.", telemetry.LatencyBuckets(), 1e9)
	t.jitTel.MemHits = reg.Counter("poseidon_jit_code_cache_hits_total",
		"Code-cache hits, by tier.", telemetry.Label{Key: "tier", Value: "memory"})
	t.jitTel.PersistHits = reg.Counter("poseidon_jit_code_cache_hits_total",
		"Code-cache hits, by tier.", telemetry.Label{Key: "tier", Value: "persistent"})
	t.jitTel.MorselsInterpreted = reg.Counter("poseidon_jit_morsels_total",
		"Morsels processed by the adaptive executor, by path.",
		telemetry.Label{Key: "path", Value: "interpreted"})
	t.jitTel.MorselsCompiled = reg.Counter("poseidon_jit_morsels_total",
		"Morsels processed by the adaptive executor, by path.",
		telemetry.Label{Key: "path", Value: "compiled"})
	t.jitTel.Switchovers = reg.Counter("poseidon_jit_adaptive_switchovers_total",
		"Adaptive runs that flipped from interpretation to compiled code mid-query.")

	// Statement cache, sampled at scrape time from its own counters.
	stmts := db.stmts
	reg.CounterFunc("poseidon_stmt_cache_hits_total", "Prepared-statement cache hits.",
		func() uint64 { return stmts.stats().Hits })
	reg.CounterFunc("poseidon_stmt_cache_misses_total", "Prepared-statement cache misses (parse/plan/prepare).",
		func() uint64 { return stmts.stats().Misses })
	reg.CounterFunc("poseidon_stmt_cache_evictions_total", "Prepared statements evicted by the LRU bound.",
		func() uint64 { return stmts.stats().Evictions })
	reg.GaugeFunc("poseidon_stmt_cache_size", "Prepared statements currently cached.",
		func() float64 { return float64(stmts.stats().Size) })

	// Query/session layer.
	for m := Interpret; m <= Adaptive; m++ {
		t.queriesTotal[m] = reg.Counter("poseidon_queries_total",
			"Statement executions, by execution mode.",
			telemetry.Label{Key: "mode", Value: m.String()})
	}
	t.queryErrors = reg.Counter("poseidon_query_errors_total", "Statement executions that returned an error.")
	t.rowsStreamed = reg.Counter("poseidon_query_rows_total", "Rows emitted to clients.")
	t.queryLatency = reg.Histogram("poseidon_query_duration_seconds",
		"End-to-end statement latency.", telemetry.LatencyBuckets(), 1e9)
	t.slowQueries = reg.Counter("poseidon_slow_queries_total",
		"Queries whose latency crossed the slow-query threshold.")
	t.sessionsActive = reg.Gauge("poseidon_sessions_active", "Sessions currently open.")

	// Graph size, for dashboards.
	reg.GaugeFunc("poseidon_nodes", "Occupied node slots (all versions).",
		func() float64 { return float64(db.engine.NodeCount()) })
	reg.GaugeFunc("poseidon_rels", "Occupied relationship slots (all versions).",
		func() float64 { return float64(db.engine.RelCount()) })

	db.engine.SetTelemetry(t.coreTel)
	db.jit.SetTelemetry(t.jitTel)
	return t
}

// observeQuery records one statement execution: mode and latency
// counters, row/error accounting, and — over the threshold — the full
// stage trace in the slow-query log.
func (t *dbTelemetry) observeQuery(queryText, traceID string, mode ExecMode, start time.Time,
	total, prep time.Duration, st jit.RunStats, rows int64, delta pmem.StatsSnapshot, err error) {
	if t == nil {
		return
	}
	if mode >= 0 && int(mode) < len(t.queriesTotal) {
		t.queriesTotal[mode].Inc()
	}
	t.queryLatency.ObserveDuration(total)
	t.rowsStreamed.Add(uint64(rows))
	if err != nil {
		t.queryErrors.Inc()
	}
	execTime := st.ExecTime
	if execTime == 0 {
		execTime = total
	}
	trace := telemetry.QueryTrace{
		Query:      queryText,
		TraceID:    traceID,
		Mode:       mode.String(),
		Start:      start,
		Total:      total,
		Parse:      prep,
		Compile:    st.CompileTime,
		Execute:    execTime,
		FromCache:  st.FromCache,
		Rows:       rows,
		PMemReads:  delta.Reads,
		PMemWrites: delta.Writes,
	}
	if err != nil {
		trace.Err = err.Error()
	}
	if t.slow.MaybeRecord(trace) {
		t.slowQueries.Inc()
	}
}

// ServerTelemetry is the handle set a network front door (poseidond)
// records into: connection and in-flight-statement gauges, the
// admission-control reject counter, and one latency histogram per
// request message type. The handles are nil-safe — a server on a
// telemetry-disabled DB records into no-ops — so the server code never
// branches on whether telemetry is on.
type ServerTelemetry struct {
	// ConnsOpen gauges currently open client connections
	// (poseidon_conns_open).
	ConnsOpen *telemetry.Gauge
	// InflightStmts gauges statements admitted and not yet finished —
	// the occupancy of the server's bounded in-flight semaphore
	// (poseidon_inflight_stmts).
	InflightStmts *telemetry.Gauge
	// AdmissionRejects counts requests shed with QUEUE_FULL
	// (poseidon_admission_rejects).
	AdmissionRejects *telemetry.Counter
	// MsgLatency holds per-request-type handle latency histograms
	// (poseidon_server_message_seconds{type=...}).
	MsgLatency map[string]*telemetry.Histogram
}

// Observe records one handled request of the given message type.
func (t *ServerTelemetry) Observe(msgType string, d time.Duration) {
	if t == nil {
		return
	}
	t.MsgLatency[msgType].ObserveDuration(d)
}

// RegisterServer registers the network-server metric series on the
// DB's telemetry registry and returns the handles poseidond records
// into: poseidon_conns_open, poseidon_inflight_stmts,
// poseidon_admission_rejects, poseidon_server_message_seconds{type=...}
// (one per name in msgTypes) and a constant poseidon_build_info gauge
// carrying the build's version as a label. On a telemetry-disabled DB
// the returned handles are valid no-ops. Call it once per DB.
func (db *DB) RegisterServer(version string, msgTypes []string) *ServerTelemetry {
	var reg *telemetry.Registry
	if db.tel != nil {
		reg = db.tel.reg
	}
	st := &ServerTelemetry{
		ConnsOpen:        reg.Gauge("poseidon_conns_open", "Client connections currently open on the network server."),
		InflightStmts:    reg.Gauge("poseidon_inflight_stmts", "Statements admitted and executing on the network server."),
		AdmissionRejects: reg.Counter("poseidon_admission_rejects", "Requests shed with QUEUE_FULL by admission control."),
		MsgLatency:       make(map[string]*telemetry.Histogram, len(msgTypes)),
	}
	reg.GaugeFunc("poseidon_build_info",
		"Constant 1; the labels identify the running build.",
		func() float64 { return 1 },
		telemetry.Label{Key: "version", Value: version},
		telemetry.Label{Key: "go", Value: runtime.Version()})
	for _, mt := range msgTypes {
		st.MsgLatency[mt] = reg.Histogram("poseidon_server_message_seconds",
			"Server-side handle latency, by request message type.",
			telemetry.LatencyBuckets(), 1e9,
			telemetry.Label{Key: "type", Value: mt})
	}
	if db.tel != nil {
		db.tel.server = st
	}
	return st
}

// ServerMetrics is the network-server slice of a Metrics snapshot,
// present once RegisterServer has been called on an instrumented DB.
type ServerMetrics struct {
	ConnsOpen        int64                                  `json:"conns_open"`
	InflightStmts    int64                                  `json:"inflight_stmts"`
	AdmissionRejects uint64                                 `json:"admission_rejects"`
	MsgLatency       map[string]telemetry.HistogramSnapshot `json:"msg_latency"`
}

// TxMetrics is the MVTO transaction slice of a Metrics snapshot.
type TxMetrics struct {
	Begun   uint64            `json:"begun"`
	Commits uint64            `json:"commits"`
	Aborts  map[string]uint64 `json:"aborts"` // by reason
	Active  int               `json:"active"`
	// ChainWalk is the distribution of versions inspected per DRAM
	// version-chain lookup (§5.2).
	ChainWalk telemetry.HistogramSnapshot `json:"chain_walk"`
}

// QueryMetrics is the statement-execution slice of a Metrics snapshot.
type QueryMetrics struct {
	Count   uint64                      `json:"count"`
	ByMode  map[string]uint64           `json:"by_mode"`
	Errors  uint64                      `json:"errors"`
	Rows    uint64                      `json:"rows"`
	Slow    uint64                      `json:"slow"`
	Latency telemetry.HistogramSnapshot `json:"latency"`
}

// JITMetrics is the compiler slice of a Metrics snapshot.
type JITMetrics struct {
	Compiles             uint64                      `json:"compiles"`
	CompileTime          telemetry.HistogramSnapshot `json:"compile_time"`
	CodeCacheMemHits     uint64                      `json:"code_cache_mem_hits"`
	CodeCachePersistHits uint64                      `json:"code_cache_persist_hits"`
	MorselsInterpreted   uint64                      `json:"morsels_interpreted"`
	MorselsCompiled      uint64                      `json:"morsels_compiled"`
	Switchovers          uint64                      `json:"switchovers"`
}

// ShardMetrics is one core shard's slice of a Metrics snapshot.
type ShardMetrics struct {
	// Commits counts commits whose lock set included the shard.
	Commits uint64 `json:"commits"`
	// LockWaitNs is the cumulative wait for the shard's commit lock.
	LockWaitNs uint64 `json:"lock_wait_ns"`
	// LockContended counts commit-lock acquisitions that found the lock
	// held (TryLock misses) — a scheduling-independent contention measure.
	LockContended uint64 `json:"lock_contended"`
	// Inserts counts records placed in the shard at operation time.
	Inserts uint64 `json:"inserts"`
}

// Metrics is a structured snapshot of every engine counter. PMem device
// stats, statement-cache stats, graph sizes and shard stats are live
// regardless of TelemetryConfig.Enabled; the rest require telemetry
// (Enabled reports which case this snapshot is).
type Metrics struct {
	Enabled        bool               `json:"enabled"`
	PMem           pmem.StatsSnapshot `json:"pmem"`
	Tx             TxMetrics          `json:"tx"`
	Query          QueryMetrics       `json:"query"`
	JIT            JITMetrics         `json:"jit"`
	StmtCache      CacheStats         `json:"stmt_cache"`
	SessionsActive int64              `json:"sessions_active"`
	Nodes          uint64             `json:"nodes"`
	Rels           uint64             `json:"rels"`
	// Shards holds per-shard contention and balance counters; its length
	// is the engine's configured shard count.
	Shards []ShardMetrics `json:"shards"`
	// CrossShardCommits counts commits spanning more than one shard.
	CrossShardCommits uint64 `json:"cross_shard_commits"`
	// Server holds the network-server counters when a front door has
	// registered itself (see RegisterServer); nil otherwise.
	Server *ServerMetrics `json:"server,omitempty"`
}

// Metrics returns a structured snapshot of the engine's counters. It is
// valid on a telemetry-disabled DB too: the always-on subsystem stats
// (pmem device, statement cache, graph sizes) are filled and Enabled is
// false.
func (db *DB) Metrics() Metrics {
	m := Metrics{
		PMem:      db.engine.Device().Stats.Snapshot(),
		StmtCache: db.stmts.stats(),
		Nodes:     db.engine.NodeCount(),
		Rels:      db.engine.RelCount(),
	}
	m.Tx.Active = db.engine.ActiveTxs()
	shardStats, cross := db.engine.ShardStatsSnapshot()
	m.Shards = make([]ShardMetrics, len(shardStats))
	for s, st := range shardStats {
		m.Shards[s] = ShardMetrics{
			Commits: st.Commits, LockWaitNs: st.LockWaitNs,
			LockContended: st.LockContended, Inserts: st.HomeInserts,
		}
	}
	m.CrossShardCommits = cross
	t := db.tel
	if t == nil {
		return m
	}
	m.Enabled = true
	m.SessionsActive = t.sessionsActive.Value()
	m.Tx.Begun = t.coreTel.TxBegun.Value()
	m.Tx.Commits = t.coreTel.TxCommits.Value()
	m.Tx.Aborts = make(map[string]uint64, core.NumAbortReasons)
	for r := 0; r < core.NumAbortReasons; r++ {
		m.Tx.Aborts[core.AbortReason(r).String()] = t.coreTel.TxAborts[r].Value()
	}
	m.Tx.ChainWalk = t.coreTel.ChainWalk.Snapshot()
	m.Query.ByMode = make(map[string]uint64, len(t.queriesTotal))
	for mode := Interpret; mode <= Adaptive; mode++ {
		v := t.queriesTotal[mode].Value()
		m.Query.ByMode[mode.String()] = v
		m.Query.Count += v
	}
	m.Query.Errors = t.queryErrors.Value()
	m.Query.Rows = t.rowsStreamed.Value()
	m.Query.Slow = t.slowQueries.Value()
	m.Query.Latency = t.queryLatency.Snapshot()
	m.JIT.Compiles = t.jitTel.Compiles.Value()
	m.JIT.CompileTime = t.jitTel.CompileTime.Snapshot()
	m.JIT.CodeCacheMemHits = t.jitTel.MemHits.Value()
	m.JIT.CodeCachePersistHits = t.jitTel.PersistHits.Value()
	m.JIT.MorselsInterpreted = t.jitTel.MorselsInterpreted.Value()
	m.JIT.MorselsCompiled = t.jitTel.MorselsCompiled.Value()
	m.JIT.Switchovers = t.jitTel.Switchovers.Value()
	if sv := t.server; sv != nil {
		sm := &ServerMetrics{
			ConnsOpen:        sv.ConnsOpen.Value(),
			InflightStmts:    sv.InflightStmts.Value(),
			AdmissionRejects: sv.AdmissionRejects.Value(),
			MsgLatency:       make(map[string]telemetry.HistogramSnapshot, len(sv.MsgLatency)),
		}
		for mt, h := range sv.MsgLatency {
			sm.MsgLatency[mt] = h.Snapshot()
		}
		m.Server = sm
	}
	return m
}

// MetricsHandler returns an http.Handler serving the Prometheus text
// exposition of every registered metric. On a telemetry-disabled DB it
// answers 503, so probes can distinguish "off" from "empty".
func (db *DB) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if db.tel == nil {
			http.Error(w, "telemetry disabled (set Config.Telemetry.Enabled)", http.StatusServiceUnavailable)
			return
		}
		db.tel.reg.Handler().ServeHTTP(w, r)
	})
}

// DebugMux returns a mux with /metrics (see MetricsHandler) and the
// standard pprof handlers under /debug/pprof/. Mount it on an opt-in
// listener:
//
//	go http.ListenAndServe("localhost:6060", db.DebugMux())
func (db *DB) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", db.MetricsHandler())
	mux.Handle("/debug/traces", trace.Handler(db.tracer))
	telemetry.MountPprof(mux)
	return mux
}

// SlowQueries returns the retained slow-query traces, newest first, or
// nil when telemetry is disabled.
func (db *DB) SlowQueries() []telemetry.QueryTrace {
	if db.tel == nil {
		return nil
	}
	return db.tel.slow.Entries()
}

// SlowQueryThreshold reports the active slow-query threshold (0 when
// telemetry is disabled).
func (db *DB) SlowQueryThreshold() time.Duration {
	if db.tel == nil {
		return 0
	}
	return db.tel.slow.Threshold()
}
