package poseidon

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"poseidon/internal/cypher"
	"poseidon/internal/jit"
	"poseidon/internal/pmem"
	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// Stmt is a prepared statement: a query parsed, planned and prepared
// exactly once (query.Prepare: expressions compiled, dictionary codes
// resolved, signature formatted). Statements are cached in the DB (see
// CacheStats) and are immutable, so sessions and goroutines share them;
// per-execution state lives in the transaction, the bindings and the run.
type Stmt struct {
	db       *DB
	plan     *query.Plan
	prepared *query.Prepared
	text     string        // Cypher source, empty for plan-built statements
	prepTime time.Duration // parse + plan + prepare cost, paid once
}

// Plan exposes the statement's algebra plan.
func (s *Stmt) Plan() *query.Plan { return s.plan }

// Text returns the Cypher source the statement was prepared from, or ""
// if it was built from a plan directly.
func (s *Stmt) Text() string { return s.text }

// Signature returns the plan signature, which doubles as the JIT
// code-cache key.
func (s *Stmt) Signature() string { return s.plan.Signature() }

// Prepare parses, plans and caches a Cypher statement. The cache key is
// a whitespace/keyword-case-normalized fingerprint of the source, so the
// same statement formatted differently still hits. Parameters ($name)
// are bound at execution time; preparing once and running many times
// costs one parse/plan total.
func (db *DB) Prepare(src string) (*Stmt, error) {
	fp, err := cypher.Fingerprint(src)
	if err != nil {
		return nil, err
	}
	key := "cypher:" + fp
	if st, ok := db.stmts.get(key); ok {
		return st, nil
	}
	start := time.Now()
	plan, err := cypher.Plan(db.engine, src)
	if err != nil {
		return nil, err
	}
	pr, err := query.Prepare(db.engine, plan)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, plan: plan, prepared: pr, text: src, prepTime: time.Since(start)}
	return db.stmts.put(key, st), nil
}

// PreparePlan caches an algebra plan as a statement, keyed by its
// signature. Plans with identical structure (parameters contribute names,
// not values) share one prepared statement.
func (db *DB) PreparePlan(plan *query.Plan) (*Stmt, error) {
	key := "plan:" + plan.Signature()
	if st, ok := db.stmts.get(key); ok {
		return st, nil
	}
	start := time.Now()
	pr, err := query.Prepare(db.engine, plan)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, plan: plan, prepared: pr, prepTime: time.Since(start)}
	return db.stmts.put(key, st), nil
}

// CacheStats returns hit/miss/eviction counters for the shared
// prepared-statement cache.
func (db *DB) CacheStats() CacheStats { return db.stmts.stats() }

// run executes the statement in tx under the given mode, pushing raw
// rows to emit. The context cancels execution between records.
//
// This is the single funnel every execution path goes through —
// materializing session calls, streaming cursors and QueryTxCtx alike —
// which makes it the one place a statement is observed: counters into
// the registry, the per-statement breakdown onto the stmt.run span. With
// telemetry and tracing disabled the statement runs with zero
// instrumentation.
func (s *Stmt) run(ctx context.Context, tx *Tx, params query.Params, mode ExecMode, workers int, emit func(query.Row) bool) error {
	tel := s.db.tel
	if tel == nil && s.db.tracer == nil {
		_, err := s.runInner(ctx, tx, params, mode, workers, emit)
		return err
	}
	// Request tracing continues the caller's trace: the session's span,
	// a root or the child of the server's wire span.
	ctx, span := trace.StartSpan(ctx, "stmt.run", trace.KindSession)
	stats := &s.db.engine.Device().Stats
	var pre pmem.StatsSnapshot
	if span != nil {
		pre = stats.Snapshot()
	}
	var rows atomic.Int64 // parallel workers may race on emit's wrapper
	counted := func(r query.Row) bool {
		rows.Add(1)
		return emit(r)
	}
	start := time.Now()
	st, err := s.runInner(ctx, tx, params, mode, workers, counted)
	total := time.Since(start)
	if span != nil {
		queryText := s.text
		if queryText == "" {
			queryText = s.prepared.Sig
		}
		span.SetAttr("query", queryText)
		span.SetAttr("mode", mode.String())
		span.SetAttr("rows", rows.Load())
		span.SetAttr("prepare_ns", int64(s.prepTime))
		if st.CompileTime > 0 {
			span.SetAttr("compile_ns", int64(st.CompileTime))
		}
		// The device delta over-attributes under concurrency (other
		// queries share the device); it is a locality signal, not an
		// exact charge.
		delta := stats.Snapshot().Sub(pre)
		span.SetAttr("pmem_reads", int64(delta.Reads))
		span.SetAttr("pmem_writes", int64(delta.Writes))
	}
	span.SetError(err)
	span.End()
	tel.observeQuery(mode, total, s.db.slow, rows.Load(), err)
	return err
}

// executor is the one rule for who runs a plan under a mode; every run
// and Explain read it. Interpret and JIT are taken at their word.
// Parallel and Adaptive drive morsels when the plan has a table scan to
// cut into them and the workers can share one transaction over it
// (query.Split.Morsels). Anything else is interpreted on the Prepared's
// pooled, already-linked instances: a point read has no morsel loop —
// nothing to spread over workers, no morsel boundary to switch tiers at
// (§6.2) — and an update (for a deterministic write order) or a join
// runs single-threaded.
func executor(mode ExecMode, sp *query.Split) ExecMode {
	if mode == Interpret || mode == JIT || sp.Morsels() {
		return mode
	}
	return Interpret
}

// runInner dispatches to the statement's executor under mode, returning
// the JIT cost breakdown when one exists (zero for the interpreted modes).
func (s *Stmt) runInner(ctx context.Context, tx *Tx, params query.Params, mode ExecMode, workers int, emit func(query.Row) bool) (jit.RunStats, error) {
	var st jit.RunStats
	switch executor(mode, s.plan.Split()) {
	case Interpret:
		return st, s.interpret(ctx, tx, params, emit)
	case Parallel:
		ectx, esp := trace.StartSpan(ctx, "query.parallel", trace.KindExec)
		err := s.prepared.RunParallelCtx(ectx, tx, params, workers, emit)
		esp.SetError(err)
		esp.End()
		return st, err
	case JIT:
		// jit.RunCtx creates its own compile/exec spans from ctx.
		return s.db.jit.RunCtx(ctx, tx, s.plan, params, emit)
	case Adaptive:
		return s.db.jit.RunAdaptiveCtx(ctx, tx, s.plan, params, workers, emit)
	default:
		return st, fmt.Errorf("poseidon: unknown execution mode %d", mode)
	}
}

func (s *Stmt) interpret(ctx context.Context, tx *Tx, params query.Params, emit func(query.Row) bool) error {
	ectx, esp := trace.StartSpan(ctx, "query.interpret", trace.KindExec)
	err := s.prepared.RunCtx(ectx, tx, params, emit)
	esp.SetError(err)
	esp.End()
	return err
}
