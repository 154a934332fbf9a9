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
// substrate. It has two halves with one job each: the metrics registry
// (Enabled — every series, read through DB.Metrics or the Prometheus
// endpoint) and request tracing (Trace — one record per request, read
// through DB.Traces, DB.SlowQueries and /debug/traces). When both are
// off (the default), the engine holds nil handles everywhere and the hot
// paths pay a single branch — no allocation, no atomic write.
type TelemetryConfig struct {
	// Enabled turns the metrics registry on.
	Enabled bool
	// SlowQueryThreshold is the one definition of "slow": a statement at
	// least this slow counts in poseidon_slow_queries_total, and a
	// request trace at least this slow is pinned in the trace ring and
	// listed by DB.SlowQueries. Default 100ms; negative means nothing is
	// slow (errored traces still pin).
	SlowQueryThreshold time.Duration
	// Trace enables per-request span tracing (see TraceConfig). It is
	// independent of Enabled: tracing can run without the metrics
	// registry, and vice versa.
	Trace TraceConfig
}

// slowThreshold resolves SlowQueryThreshold: the default for 0, and 0
// ("nothing is slow") for a negative value.
func (c TelemetryConfig) slowThreshold() time.Duration {
	switch {
	case c.SlowQueryThreshold == 0:
		return 100 * time.Millisecond
	case c.SlowQueryThreshold < 0:
		return 0
	}
	return c.SlowQueryThreshold
}

// dbTelemetry bundles the registry and the facade-level metric handles.
// A nil *dbTelemetry is the disabled state.
type dbTelemetry struct {
	reg *telemetry.Registry

	// Facade (query/session) handles.
	queriesTotal   [4]*telemetry.Counter // indexed by ExecMode
	queryErrors    *telemetry.Counter
	rowsStreamed   *telemetry.Counter
	slowQueries    *telemetry.Counter
	queryLatency   *telemetry.Histogram
	sessionsActive *telemetry.Gauge
}

// newDBTelemetry builds the registry, registers every metric family in
// exposition order, and installs the handles into the core and JIT
// engines. Returns nil when telemetry is disabled.
func newDBTelemetry(db *DB, cfg TelemetryConfig) *dbTelemetry {
	if !cfg.Enabled {
		return nil
	}
	reg := telemetry.NewRegistry()
	t := &dbTelemetry{reg: reg}
	var coreTel core.Telemetry
	var jitTel jit.Telemetry

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
	coreTel.TxBegun = reg.Counter("poseidon_tx_begun_total", "Transactions started.")
	coreTel.TxCommits = reg.Counter("poseidon_tx_commits_total", "Transactions committed (including read-only).")
	for r := 0; r < core.NumAbortReasons; r++ {
		reason := core.AbortReason(r)
		coreTel.TxAborts[r] = reg.Counter("poseidon_tx_aborts_total",
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
	coreTel.ChainWalk = reg.Histogram("poseidon_mvto_chain_walk_length",
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
	jitTel.Compiles = reg.Counter("poseidon_jit_compiles_total", "Full plan compilations (both cache tiers missed).")
	jitTel.CompileTime = reg.Histogram("poseidon_jit_compile_seconds",
		"Full-compilation wall time.", telemetry.LatencyBuckets(), 1e9)
	jitTel.MemHits = reg.Counter("poseidon_jit_code_cache_hits_total",
		"Code-cache hits, by tier.", telemetry.Label{Key: "tier", Value: "memory"})
	jitTel.PersistHits = reg.Counter("poseidon_jit_code_cache_hits_total",
		"Code-cache hits, by tier.", telemetry.Label{Key: "tier", Value: "persistent"})
	jitTel.MorselsInterpreted = reg.Counter("poseidon_jit_morsels_total",
		"Morsels processed by the adaptive executor, by path.",
		telemetry.Label{Key: "path", Value: "interpreted"})
	jitTel.MorselsCompiled = reg.Counter("poseidon_jit_morsels_total",
		"Morsels processed by the adaptive executor, by path.",
		telemetry.Label{Key: "path", Value: "compiled"})
	jitTel.Switchovers = reg.Counter("poseidon_jit_adaptive_switchovers_total",
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

	db.engine.SetTelemetry(coreTel)
	db.jit.SetTelemetry(jitTel)
	return t
}

// observeQuery records one statement execution: mode and latency
// counters, row/error accounting, and the slow-query count against the
// DB's threshold (0 = nothing is slow). The per-statement breakdown is
// the request trace's job (see SlowQueries).
func (t *dbTelemetry) observeQuery(mode ExecMode, total, slow time.Duration, rows int64, err error) {
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
	if slow > 0 && total >= slow {
		t.slowQueries.Inc()
	}
}

// ServerTelemetry is the handle set a network front door (poseidond)
// records into: connection and in-flight-statement gauges, the
// admission-control reject counter and wait histogram, and one latency
// histogram per request message type. The handles are nil-safe — a
// server on a telemetry-disabled DB records into no-ops — so the server
// code never branches on whether telemetry is on.
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
	// AdmissionWait observes how long each RUN waited for an in-flight
	// slot, admitted or shed (poseidon_admission_wait_seconds).
	AdmissionWait *telemetry.Histogram
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
// poseidon_admission_rejects, poseidon_admission_wait_seconds,
// poseidon_server_message_seconds{type=...}
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
		AdmissionWait: reg.Histogram("poseidon_admission_wait_seconds",
			"Time a RUN waited for an in-flight slot, admitted or shed.", telemetry.LatencyBuckets(), 1e9),
		MsgLatency: make(map[string]*telemetry.Histogram, len(msgTypes)),
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
	return st
}

// Metrics returns the registry's own snapshot: every series /metrics
// prints, under the name and labels it prints them with, so a series
// registered once (newDBTelemetry, RegisterServer, installTracer) reaches
// both readers. On a telemetry-disabled DB the snapshot is empty; the
// always-on figures are one call on their owner (Device().Stats.Snapshot,
// CacheStats, Engine().NodeCount/RelCount, Engine().ShardStatsSnapshot).
func (db *DB) Metrics() telemetry.Snapshot {
	if db.tel == nil {
		return telemetry.Snapshot{}
	}
	return db.tel.reg.Snapshot()
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

// SlowQueries is the slow-query log: the retained request traces at
// least SlowQueryThreshold long, newest first, as per-stage profiles (the
// stmt.run stage carries query text, mode, rows, prepare_ns, compile_ns
// and the device read/write delta; jit.compile and jit.exec split the JIT
// modes' time). It is a view over the trace ring, so it needs tracing: a
// DB with metrics on and tracing off counts poseidon_slow_queries_total
// but has no rows.
func (db *DB) SlowQueries() []*trace.Profile {
	if db.slow <= 0 {
		return nil
	}
	var out []*trace.Profile
	traces := db.tracer.Traces()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].Duration >= db.slow {
			out = append(out, trace.BuildProfile(traces[i]))
		}
	}
	return out
}

// SlowQueryThreshold reports the active slow-query threshold: 0 when
// nothing counts as slow (telemetry and tracing both off, or a negative
// configured threshold).
func (db *DB) SlowQueryThreshold() time.Duration { return db.slow }
