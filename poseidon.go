// Package poseidon is the public facade of the PMem graph engine: a
// transactional property-graph database designed for persistent memory,
// with MVTO snapshot-isolated transactions, hybrid DRAM/PMem B+-tree
// indexes, a push-based query engine and a JIT query compiler with
// adaptive execution — a from-scratch Go reproduction of "JIT happens:
// Transactional Graph Processing in Persistent Memory meets Just-In-Time
// Compilation" (EDBT 2021).
//
// The execution API is organized around three types. A Stmt is a
// prepared statement — Cypher text or an algebra plan, parsed and
// planned once and cached in the DB with an LRU bound, shared by every
// session. A Session pins per-request defaults (execution mode,
// statement deadline, worker budget) and owns the transactions it
// starts; closing it rolls back whatever is still running. Rows streams
// a result: the query executes in a producer goroutine while the
// consumer pulls rows and decodes values on demand.
//
// Quick start:
//
//	db, err := poseidon.Open(poseidon.Config{})
//	tx := db.Begin()
//	alice, _ := tx.CreateNode("Person", map[string]any{"name": "alice"})
//	bob, _ := tx.CreateNode("Person", map[string]any{"name": "bob"})
//	tx.CreateRel(alice, bob, "knows", nil)
//	tx.Commit()
//
//	sess := db.NewSession(poseidon.SessionConfig{Mode: poseidon.Parallel, Timeout: time.Second})
//	defer sess.Close()
//	stmt, _ := db.Prepare(`MATCH (p:Person) RETURN p.name`)
//	rows, _ := sess.Query(ctx, stmt, nil)
//	defer rows.Close()
//	for rows.Next() {
//		var name string
//		rows.Scan(&name)
//	}
//
// Every entry point that runs a statement takes a context, which must be
// non-nil (QueryCtx, ExecCtx, CypherCtx, ... are one-shots over a
// throw-away Session); cancelling the context — or exceeding a deadline —
// aborts execution between records in all four execution modes,
// including the morsel-parallel and JIT-compiled ones, and rolls the
// transaction back.
//
// The heavy lifting lives in the internal packages: pmem (simulated
// persistent memory), pmemobj (PMDK-like pools and failure-atomic
// transactions), storage (chunked record tables), dict (persistent
// dictionary), index (B+-trees), core (the MVTO engine), query (algebra
// and interpreter), jit (IR, optimizer, closure backend, code cache),
// ldbc (the SNB-like workload) and diskstore (the disk baseline).
package poseidon

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/cypher"
	"poseidon/internal/index"
	"poseidon/internal/jit"
	"poseidon/internal/pmem"
	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// Mode selects the storage medium.
type Mode = core.Mode

// Storage modes.
const (
	// PMem keeps primary data in simulated persistent memory with
	// Optane-like latencies; data survives DB.Crash.
	PMem = core.PMem
	// DRAM runs the identical engine on volatile zero-latency memory
	// (the paper's dram baseline).
	DRAM = core.DRAM
)

// IndexKind selects a secondary-index variant.
type IndexKind = index.Kind

// Index variants (paper §4.2 / Fig 8). HybridIndex is the recommended
// default: PMem leaves with DRAM inner nodes.
const (
	VolatileIndex   = index.Volatile
	HybridIndex     = index.Hybrid
	PersistentIndex = index.Persistent
)

// ExecMode selects how a statement's plan is executed.
type ExecMode int

// Execution modes (§6).
const (
	// Interpret uses the AOT-compiled push-based interpreter.
	Interpret ExecMode = iota
	// Parallel uses morsel-driven parallel interpretation.
	Parallel
	// JIT compiles the pipeline to specialized code (cached) and runs it.
	JIT
	// Adaptive interprets morsels while compiling in the background, then
	// switches to compiled code (§6.2 "Adaptive Execution").
	Adaptive
)

func (m ExecMode) String() string {
	switch m {
	case Interpret:
		return "interpret"
	case Parallel:
		return "parallel"
	case JIT:
		return "jit"
	case Adaptive:
		return "adaptive"
	}
	return "unknown"
}

// Config configures a database.
type Config struct {
	// Mode selects PMem (default) or DRAM.
	Mode Mode
	// PoolSize is the device capacity in bytes (default 256 MiB).
	PoolSize int
	// Workers bounds Parallel/Adaptive execution (0 = GOMAXPROCS).
	Workers int
	// Shards is the engine-core shard count: per-shard MVTO state,
	// secondary-index slices and commit locks (0 = GOMAXPROCS, capped at
	// 64; 1 = the unsharded single-monitor engine). See core.Config.
	Shards int
	// StmtCacheSize bounds the shared prepared-statement LRU cache
	// (0 = default 256, negative = unbounded).
	StmtCacheSize int
	// Telemetry enables the metrics registry and request tracing (see
	// TelemetryConfig). Off by default: the hot paths then pay a single
	// nil-check branch.
	Telemetry TelemetryConfig
}

// defaultStmtCacheSize bounds the statement cache when Config leaves it 0.
const defaultStmtCacheSize = 256

// DB is a Poseidon graph database.
type DB struct {
	engine  *core.Engine
	jit     *jit.Engine
	workers int
	stmts   *stmtCache
	tel     *dbTelemetry  // nil when telemetry is disabled
	tracer  *trace.Tracer // nil when request tracing is disabled
	slow    time.Duration // resolved SlowQueryThreshold; 0 = nothing is slow
}

// Tx is a snapshot-isolated MVTO transaction. See core.Tx for the full
// API: CreateNode, CreateRel, GetNode, GetRel, SetNodeProps, SetRelProps,
// DeleteNode, DetachDeleteNode, DeleteRel, OutRels, InRels, ScanNodes,
// Commit, Abort.
type Tx = core.Tx

// stmtCacheCap resolves the configured statement-cache bound.
func stmtCacheCap(cfg Config) int {
	switch {
	case cfg.StmtCacheSize > 0:
		return cfg.StmtCacheSize
	case cfg.StmtCacheSize < 0:
		return 0 // unbounded
	default:
		return defaultStmtCacheSize
	}
}

// Open creates a new database.
func Open(cfg Config) (*DB, error) {
	e, err := core.Open(core.Config{Mode: cfg.Mode, PoolSize: cfg.PoolSize, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	return newDB(e, cfg)
}

// Reopen attaches to the device of a previously opened PMem database,
// running crash recovery. Use db.Device() to obtain the device before a
// crash.
func Reopen(dev *pmem.Device, cfg Config) (*DB, error) {
	e, err := core.Reopen(dev, core.Config{Mode: cfg.Mode, PoolSize: cfg.PoolSize, Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	return newDB(e, cfg)
}

// newDB wraps an opened engine: JIT, statement cache, and the telemetry
// and tracing handles (each nil when its half of cfg.Telemetry is off).
func newDB(e *core.Engine, cfg Config) (*DB, error) {
	j, err := jit.New(e)
	if err != nil {
		e.Close()
		return nil, err
	}
	db := &DB{engine: e, jit: j, workers: cfg.Workers, stmts: newStmtCache(stmtCacheCap(cfg))}
	if tc := cfg.Telemetry; tc.Enabled || tc.Trace.Enabled {
		db.slow = tc.slowThreshold()
	}
	db.tracer = newTracer(cfg.Telemetry.Trace, db.slow)
	db.tel = newDBTelemetry(db, cfg.Telemetry)
	db.installTracer()
	return db, nil
}

// Close releases the database. The underlying device stays usable for
// Reopen.
func (db *DB) Close() { db.engine.Close() }

// Engine exposes the underlying graph engine.
func (db *DB) Engine() *core.Engine { return db.engine }

// Device exposes the simulated memory device (for crash testing, stats
// and Save/Load persistence across processes).
func (db *DB) Device() *pmem.Device { return db.engine.Device() }

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return db.engine.Begin() }

// CreateIndex builds a secondary index over the given node label and
// property and keeps it maintained by every commit. Cached statements
// are invalidated: the planner's access-path choice depends on which
// indexes exist, so plans prepared before the index would keep scanning.
func (db *DB) CreateIndex(label, key string, kind IndexKind) error {
	if err := db.engine.CreateIndex(label, key, kind); err != nil {
		return err
	}
	db.stmts.purge()
	return nil
}

// QueryCtx runs a plan in a fresh read-only transaction with the default
// (Interpret) mode and returns all rows decoded to Go values. Plans
// containing updates are rejected with ErrUpdatePlan — the transaction
// is always rolled back, so the updates would silently vanish; use
// ExecCtx instead. Cancelling ctx aborts execution between records and
// rolls the transaction back.
func (db *DB) QueryCtx(ctx context.Context, plan *query.Plan, params query.Params) ([][]any, error) {
	return db.QueryModeCtx(ctx, plan, params, Interpret)
}

// QueryModeCtx is QueryCtx with an explicit execution mode. Like every
// one-shot it runs in a throw-away Session, which owns the implicit
// transaction: one-shots get the tracing and rollback bookkeeping of any
// other statement.
func (db *DB) QueryModeCtx(ctx context.Context, plan *query.Plan, params query.Params, mode ExecMode) ([][]any, error) {
	stmt, err := db.PreparePlan(plan)
	if err != nil {
		return nil, err
	}
	s := db.NewSession(SessionConfig{Mode: mode})
	defer s.Close()
	return s.QueryAll(ctx, stmt, params)
}

// QueryTxCtx runs a plan inside an existing transaction, so updates
// observe and join the transaction's effects; committing remains the
// caller's job. On cancellation the transaction is aborted mid-scan and
// the context's error returned. It owns no transaction, so it opens no
// session: with tracing on it is traced under the span ctx carries, if any.
func (db *DB) QueryTxCtx(ctx context.Context, tx *Tx, plan *query.Plan, params query.Params, mode ExecMode) ([][]any, error) {
	stmt, err := db.PreparePlan(plan)
	if err != nil {
		return nil, err
	}
	return db.collect(ctx, tx, stmt, params, mode, db.workers)
}

// A reader decodes a statement's rows to Go values as the run emits them:
// the one decode-and-deliver loop behind every entry point that does not
// stream through a cursor (Session.QueryEach and QueryAll, the
// Query*/Cypher* one-shots). Each value is boxed once, straight out of the
// run's borrowed row: into the result's one slab when the reader collects,
// into a buffer reused row to row when it hands rows to fn. Its emit is
// bound once, so a session that keeps its reader hands every statement a
// function that is already made (a closure per statement cost
// sr_inproc 2.0 allocs_per_op).
type reader struct {
	e    *core.Engine
	emit func(query.Row) bool // read, bound by newReader
	fn   func([]any) error    // QueryEach's callback; nil collects
	vals []any                // the collected values, or fn's buffer
	rows int                  // rows collected
	err  error                // a decode or fn error, which stops the run
	busy bool                 // a statement is running on it
}

func newReader(e *core.Engine) *reader {
	r := &reader{e: e}
	r.emit = r.read
	return r
}

func (r *reader) read(row query.Row) bool {
	switch {
	case r.fn != nil:
		r.vals = r.vals[:0]
	case r.rows > 0 && len(r.vals) != r.rows*len(row):
		r.err = fmt.Errorf("poseidon: a row of %d values after rows of %d", len(row), len(r.vals)/r.rows)
		return false
	case cap(r.vals)-len(r.vals) < len(row):
		r.vals = slices.Grow(r.vals, max(len(row), len(r.vals))) // by rows, doubling
	}
	for _, v := range row {
		gv, err := r.e.DecodeValue(v)
		if err != nil {
			r.err = err
			return false
		}
		r.vals = append(r.vals, gv)
	}
	r.rows++
	if r.fn != nil {
		r.err = r.fn(r.vals)
	}
	return r.err == nil
}

// each runs stmt in tx on the caller's goroutine, handing every row to fn,
// or collecting the result when fn is nil. A decode or fn error stops the
// statement and is returned.
func (r *reader) each(ctx context.Context, tx *Tx, stmt *Stmt, params query.Params, mode ExecMode, workers int, fn func([]any) error) ([][]any, error) {
	r.busy, r.fn = true, fn
	defer r.reset()
	if err := stmt.run(ctx, tx, params, mode, workers, r.emit); r.err == nil && err != nil {
		r.err = err
	}
	if r.err != nil || fn != nil {
		return nil, r.err
	}
	// Every row of a plan has the same width: carve them from the slab.
	rows := make([][]any, r.rows)
	w := len(r.vals) / max(r.rows, 1)
	for i := range rows {
		rows[i] = r.vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows, nil
}

// reset readies the reader for the next statement; a collected result is
// the caller's, fn's buffer is kept.
func (r *reader) reset() {
	if r.fn == nil {
		r.vals = nil
	} else {
		clear(r.vals)
	}
	r.fn, r.rows, r.err, r.busy = nil, 0, nil, false
}

// collect runs stmt in tx and materializes the decoded result.
func (db *DB) collect(ctx context.Context, tx *Tx, stmt *Stmt, params query.Params, mode ExecMode, workers int) ([][]any, error) {
	return newReader(db.engine).each(ctx, tx, stmt, params, mode, workers, nil)
}

// decodeRow decodes a raw result row to Go values.
func (db *DB) decodeRow(r query.Row) ([]any, error) {
	out := make([]any, len(r))
	for i, v := range r {
		gv, err := db.engine.DecodeValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = gv
	}
	return out, nil
}

// ExecCtx runs an update plan inside a fresh transaction and commits it,
// returning the number of result rows. A cancelled context rolls the
// transaction back — partially applied updates never commit.
func (db *DB) ExecCtx(ctx context.Context, plan *query.Plan, params query.Params) (int, error) {
	stmt, err := db.PreparePlan(plan)
	if err != nil {
		return 0, err
	}
	s := db.NewSession(SessionConfig{})
	defer s.Close()
	return s.Exec(ctx, stmt, params)
}

// CypherCtx parses and runs a Cypher-like statement (the paper's §1 "we
// support Cypher-like navigational queries") in its own transaction,
// committing updates. Values are decoded to Go types. Statements go
// through the prepared-statement cache, so repeating one costs a single
// parse/plan (see CacheStats).
//
//	rows, err := db.CypherCtx(ctx, `MATCH (p:Person {name: $n})-[:knows]->(f)
//	                                RETURN f.name ORDER BY f.name`, query.Params{"n": "ada"})
func (db *DB) CypherCtx(ctx context.Context, src string, params query.Params) ([][]any, error) {
	return db.CypherModeCtx(ctx, src, params, Interpret)
}

// CypherModeCtx is CypherCtx with an explicit execution mode. Read-only
// statements may use any mode; updates run compiled under JIT and on the
// interpreter under every other mode (see executor in stmt.go). Cancellation
// aborts the statement's transaction, committing nothing.
func (db *DB) CypherModeCtx(ctx context.Context, src string, params query.Params, mode ExecMode) (rows [][]any, err error) {
	stmt, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	s := db.NewSession(SessionConfig{Mode: mode})
	defer s.Close()
	err = s.implicit(ctx, "session.exec", true, func(cctx context.Context, tx *Tx) error {
		rows, err = db.collect(cctx, tx, stmt, params, mode, db.workers)
		return err
	})
	return rows, err
}

// Explain describes how a plan would execute: its signature (the
// compiled-code cache key), the split into streaming pipeline and tail,
// whether the JIT can compile it, and the executor each mode's statement
// runs on (executor in stmt.go — the rule the runs themselves follow).
//
//poseidonlint:ignore ctx-threading synchronous diagnostic helper; the compile probe is bounded and usually a code-cache hit
func (db *DB) Explain(plan *query.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "signature: %s\n", plan.Signature())
	sp := plan.Split()
	if sp.Join {
		b.WriteString("pipeline:  not single-chain (join): interpreter only\n")
	} else {
		fmt.Fprintf(&b, "pipeline:  %s\n", (&query.Plan{Root: sp.Ops[sp.Cut-1]}).Signature())
		fmt.Fprintf(&b, "tail ops:  %d (the operator that cuts the pipeline and everything above it)\n", len(sp.Ops)-sp.Cut)
	}
	c, err := db.jit.CompileCtx(context.Background(), plan)
	if err == nil {
		fmt.Fprintf(&b, "jit:       compiled in %v (cache hit: %v)\n", c.CompileTime, c.FromCache)
	} else {
		fmt.Fprintf(&b, "jit:       not compilable (%v)\n", err)
	}
	if sp.Morsels() {
		b.WriteString("morsels:   morsel-driven scan\n")
	} else {
		b.WriteString("morsels:   none: one task (point access, updates or join)\n")
	}
	b.WriteString("executor: ")
	for _, mode := range []ExecMode{Interpret, Parallel, JIT, Adaptive} {
		ex := executor(mode, sp)
		if mode == Adaptive && ex == JIT && err != nil {
			ex = Interpret // runInner's fallback: the compiler said no
		}
		fmt.Fprintf(&b, " %s→%s", mode, ex)
	}
	b.WriteByte('\n')
	return b.String()
}

// ExplainCypher parses a Cypher statement and explains its plan.
func (db *DB) ExplainCypher(src string) (string, error) {
	plan, err := cypher.Plan(db.engine, src)
	if err != nil {
		return "", err
	}
	return db.Explain(plan), nil
}

// Crash simulates a power failure on a PMem database: everything not yet
// persisted is lost. Reopen the device to recover.
func (db *DB) Crash() *pmem.Device {
	dev := db.engine.Device()
	db.engine.Close()
	dev.Crash()
	return dev
}

// NodeCount returns the number of allocated node records.
func (db *DB) NodeCount() uint64 { return db.engine.NodeCount() }

// RelCount returns the number of allocated relationship records.
func (db *DB) RelCount() uint64 { return db.engine.RelCount() }
