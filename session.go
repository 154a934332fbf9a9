package poseidon

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// ErrSessionClosed is returned by operations on a closed Session.
var ErrSessionClosed = errors.New("poseidon: session is closed")

// ErrSessionLimit is returned by Begin/Query/Exec when the session
// already owns SessionConfig.MaxTxs live transactions. Callers holding
// open Rows cursors or explicit transactions must end some before
// starting more — the backpressure signal poseidond turns into a
// SESSION_LIMIT error frame.
var ErrSessionLimit = errors.New("poseidon: session transaction limit reached")

// ErrUpdatePlan is returned when an update plan reaches a read-only
// entry point (QueryCtx, QueryModeCtx, Session.Query, Session.QueryAll):
// their transaction is always rolled back, so the updates would silently
// vanish. Use ExecCtx, Session.Exec, or QueryTxCtx with an explicitly
// committed transaction.
var ErrUpdatePlan = errors.New("poseidon: plan contains updates but this entry point always rolls back its transaction; use Exec (or QueryTx and commit yourself)")

// SessionConfig pins per-session execution defaults.
type SessionConfig struct {
	// Mode is the execution mode for every statement the session runs
	// (default Interpret).
	Mode ExecMode
	// Timeout, when non-zero, is the default deadline applied to each
	// statement whose context carries no earlier deadline.
	Timeout time.Duration
	// Workers bounds Parallel/Adaptive execution (0 = the DB default).
	Workers int
	// MaxTxs, when positive, bounds how many transactions the session
	// may own at once — explicit Begins plus the implicit transactions
	// behind unfinished Query/Exec calls. Beyond the bound, Begin and
	// the statement entry points return ErrSessionLimit instead of
	// piling more work onto the engine (0 = unbounded).
	MaxTxs int
}

// Session is a lightweight execution scope over a DB: it pins an
// execution mode, a default statement deadline and a worker budget, and
// owns the transactions it starts. Closing the session rolls back every
// transaction still live — including those driving unfinished Rows
// cursors — so no work can leak past it. Sessions are cheap; open one
// per request or unit of work. A session must not be used from multiple
// goroutines concurrently, but any number of sessions can share a DB and
// its prepared-statement cache. The context passed to a session method
// must be non-nil; use context.Background() when there is none to thread.
type Session struct {
	db  *DB
	cfg SessionConfig

	mu     sync.Mutex
	txs    map[*core.Tx]struct{}
	closed bool

	// lastTrace holds the most recent finished trace rooted by this
	// session (tracing enabled only); LastProfile derives from it.
	lastTrace atomic.Pointer[trace.Trace]

	// rd decodes the rows of the session's synchronous reads (see each).
	rd *reader
}

// NewSession opens a session with the given defaults.
func (db *DB) NewSession(cfg SessionConfig) *Session {
	if cfg.Workers == 0 {
		cfg.Workers = db.workers
	}
	if db.tel != nil {
		db.tel.sessionsActive.Add(1)
	}
	return &Session{db: db, cfg: cfg, txs: make(map[*core.Tx]struct{})}
}

// Begin starts a session-owned transaction. It behaves like DB.Begin,
// but Session.Close will roll it back if the caller has not ended it.
// With MaxTxs set, a session already at its bound gets ErrSessionLimit
// and no transaction is started.
func (s *Session) Begin() (*Tx, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.cfg.MaxTxs > 0 && len(s.txs) >= s.cfg.MaxTxs {
		return nil, ErrSessionLimit
	}
	tx := s.db.engine.Begin()
	s.txs[tx] = struct{}{}
	return tx, nil
}

// release forgets a transaction that has ended.
func (s *Session) release(tx *core.Tx) {
	s.mu.Lock()
	delete(s.txs, tx)
	s.mu.Unlock()
}

// Close rolls back every transaction the session still owns. Queries
// streaming from one of them observe ErrTxDone at their next record.
// Close is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	txs := make([]*core.Tx, 0, len(s.txs))
	for tx := range s.txs {
		txs = append(txs, tx)
	}
	s.txs = nil
	s.mu.Unlock()
	if s.db.tel != nil {
		// Balanced with NewSession; the closed flag makes Close idempotent.
		s.db.tel.sessionsActive.Add(-1)
	}
	for _, tx := range txs {
		_ = tx.Abort()
	}
	return nil
}

// context applies the session's default deadline when ctx has none of
// its own. The returned cancel must be called when execution ends.
func (s *Session) context(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, s.cfg.Timeout)
		}
	}
	return ctx, func() {}
}

// startSpan opens the session-level span for one statement. With a
// parent already in ctx (the server's wire span) the session span
// nests under it; otherwise a fresh trace is rooted here. Either way
// the trace's finish sink is pointed at the session, so LastProfile
// reflects the most recent statement — but an upstream sink (the
// server conn's) wins, since sinks bind at root creation.
func (s *Session) startSpan(ctx context.Context, name string) (context.Context, *trace.Span) {
	tracer := s.db.tracer
	if tracer == nil {
		return ctx, nil
	}
	if parent := trace.FromContext(ctx); parent != nil {
		sp := parent.Child(name, trace.KindSession)
		return trace.ContextWithSpan(ctx, sp), sp
	}
	ctx = trace.WithFinishSink(ctx, func(tr *trace.Trace) { s.lastTrace.Store(tr) })
	return tracer.Start(ctx, name, trace.KindSession)
}

// LastProfile returns the execution profile of the session's most
// recently finished statement, or nil when tracing is disabled or
// nothing has run yet. Remote sessions get the equivalent through the
// server's per-connection profile (graphshell :profile).
func (s *Session) LastProfile() *trace.Profile {
	return trace.BuildProfile(s.lastTrace.Load())
}

// open starts the session's bookkeeping around one statement: its
// deadline, its span with the core.begin child, and an implicit
// transaction begun like an explicit one — under the session's lock, so a
// concurrent Close either refuses the statement or reaps its transaction.
// The returned stmtEnd ends it all; refused, open leaves nothing.
func (s *Session) open(ctx context.Context, name string) (context.Context, stmtEnd, error) {
	cctx, cancelTimeout := s.context(ctx)
	cctx, span := s.startSpan(cctx, name)
	bsp := span.Child("core.begin", trace.KindCommit)
	tx, err := s.Begin()
	bsp.End()
	if err != nil {
		span.SetError(err)
		cancelTimeout()
		span.End()
		return nil, stmtEnd{}, err
	}
	return cctx, stmtEnd{s, tx, cancelTimeout, span}, nil
}

// stmtEnd is what open started for one statement. A value, not a closure:
// a statement that ends inside the call keeps it on the stack.
type stmtEnd struct {
	s      *Session
	tx     *core.Tx
	cancel context.CancelFunc
	span   *trace.Span
}

// end rolls the transaction back (a no-op once it has committed) and
// closes the rest.
func (e stmtEnd) end() {
	e.tx.Abort()
	e.s.release(e.tx)
	e.cancel()
	e.span.End()
}

// Query runs a prepared statement in a fresh read-only snapshot and
// streams the result. The statement must not contain updates
// (ErrUpdatePlan otherwise): the snapshot is rolled back when the cursor
// is closed or exhausted. Cancelling ctx — or hitting the session's
// Timeout — aborts execution between records.
func (s *Session) Query(ctx context.Context, stmt *Stmt, params query.Params) (*Rows, error) {
	if stmt.plan.HasUpdates() {
		return nil, ErrUpdatePlan
	}
	cctx, se, err := s.open(ctx, "session.query")
	if err != nil {
		return nil, err
	}
	// The cursor calls end when it is exhausted or closed, so the session
	// span covers the full streaming lifetime.
	return newRows(cctx, s.db, se.end, func(rctx context.Context, emit func(query.Row) bool) error {
		return stmt.run(rctx, se.tx, params, s.cfg.Mode, s.cfg.Workers, emit)
	}), nil
}

// implicit is the lifecycle of an implicit transaction whose statement
// finishes inside the call: open it, run body in it, commit when asked and
// body succeeded, roll back otherwise. (A Query cursor outlives the call
// and ends its snapshot through open's end.)
func (s *Session) implicit(ctx context.Context, name string, commit bool, body func(context.Context, *Tx) error) error {
	cctx, se, err := s.open(ctx, name)
	if err != nil {
		return err
	}
	defer se.end()
	tx := se.tx
	span := trace.FromContext(cctx) // open's; nil with tracing off
	if commit && span != nil {
		// Commit runs after stmt.run restores the tx context, so the
		// span must ride the transaction itself for the commit spans to
		// find it.
		tx.WithContext(cctx)
	}
	err = body(cctx, tx)
	if err == nil && commit {
		err = tx.Commit()
	}
	span.SetError(err)
	return err
}

// QueryEach is Query for callers that consume each decoded row as it is
// produced: same snapshot, checks, Timeout and rollback, but no producer
// goroutine, no cursor, nothing materialized. The statement runs from the
// caller's goroutine and fn gets every row as the plan emits it, in one
// buffer rewritten row to row: fn copies the values it keeps. Calls to
// fn never overlap and all happen before QueryEach returns, but under
// Parallel or Adaptive over a morsel plan they are made from the morsel
// workers, one at a time, so a blocking fn stalls every worker. An error
// from fn stops the statement, rolls it back and is returned.
func (s *Session) QueryEach(ctx context.Context, stmt *Stmt, params query.Params, fn func([]any) error) error {
	_, err := s.each(ctx, stmt, params, fn)
	return err
}

// QueryAll is QueryEach collecting the whole decoded result.
func (s *Session) QueryAll(ctx context.Context, stmt *Stmt, params query.Params) ([][]any, error) {
	return s.each(ctx, stmt, params, nil)
}

// each runs a read in an implicit transaction through the session's
// reader — or a reader of its own when a statement already runs on it (an
// fn that queries the session again).
func (s *Session) each(ctx context.Context, stmt *Stmt, params query.Params, fn func([]any) error) ([][]any, error) {
	if stmt.plan.HasUpdates() {
		return nil, ErrUpdatePlan
	}
	r := s.rd
	if r == nil || r.busy {
		r = newReader(s.db.engine)
		if s.rd == nil {
			s.rd = r
		}
	}
	var rows [][]any
	err := s.implicit(ctx, "session.query", false, func(cctx context.Context, tx *Tx) error {
		var err error
		rows, err = r.each(cctx, tx, stmt, params, s.cfg.Mode, s.cfg.Workers, fn)
		return err
	})
	return rows, err
}

// Exec runs a statement — typically containing updates — in a fresh
// session-owned transaction and commits it, returning the number of
// result rows. On any error, including ctx cancellation, the
// transaction is rolled back and nothing becomes visible.
func (s *Session) Exec(ctx context.Context, stmt *Stmt, params query.Params) (int, error) {
	n := 0
	err := s.implicit(ctx, "session.exec", true, func(cctx context.Context, tx *Tx) error {
		err := stmt.run(cctx, tx, params, s.cfg.Mode, s.cfg.Workers, func(query.Row) bool { n++; return true })
		if err == nil {
			trace.FromContext(cctx).SetAttr("rows_affected", int64(n))
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// QueryTx streams a statement inside an existing transaction, so the
// query observes the transaction's uncommitted effects. The transaction
// is NOT ended when the cursor closes; committing remains the caller's
// job. The cursor must be exhausted or closed before the transaction is
// used again (the producer goroutine shares it).
func (s *Session) QueryTx(ctx context.Context, tx *Tx, stmt *Stmt, params query.Params) (*Rows, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	cctx, cancelTimeout := s.context(ctx)
	cctx, span := s.startSpan(cctx, "session.query_tx")
	end := func() {
		cancelTimeout()
		span.End()
	}
	return newRows(cctx, s.db, end, func(rctx context.Context, emit func(query.Row) bool) error {
		return stmt.run(rctx, tx, params, s.cfg.Mode, s.cfg.Workers, emit)
	}), nil
}
