package poseidon

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// TestStmtCacheSingleParse: running the same Cypher twice — even with
// different formatting and keyword case — costs exactly one parse/plan.
func TestStmtCacheSingleParse(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	src := `MATCH (p:Person {name: $n}) RETURN p.age`
	if _, err := db.CypherCtx(context.Background(), src, query.Params{"n": "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CypherCtx(context.Background(), src, query.Params{"n": "bob"}); err != nil {
		t.Fatal(err)
	}
	// Same statement, reformatted: the fingerprint normalizes it.
	if _, err := db.CypherCtx(context.Background(), "match  (p:Person\n{name: $n})  return p.age", query.Params{"n": "carol"}); err != nil {
		t.Fatal(err)
	}
	st := db.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits < 2 {
		t.Errorf("hits = %d, want >= 2", st.Hits)
	}
	if st.Size != 1 {
		t.Errorf("size = %d, want 1", st.Size)
	}
}

// TestPreparePlanCache: plan-built statements share by signature.
func TestPreparePlanCache(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	s1, err := db.PreparePlan(friendsPlan())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.PreparePlan(friendsPlan())
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("equal plans produced distinct statements")
	}
	if st := db.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}
}

// TestStmtCacheEviction: the LRU bound holds and evictions are counted.
func TestStmtCacheEviction(t *testing.T) {
	db, err := Open(Config{Mode: DRAM, StmtCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	for _, label := range []string{"A", "B", "C"} {
		if _, err := db.PreparePlan(&query.Plan{Root: &query.NodeScan{Label: label}}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.CacheStats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want size 2 / 1 eviction", st)
	}
	// A was least recently used and must re-plan.
	if _, err := db.PreparePlan(&query.Plan{Root: &query.NodeScan{Label: "A"}}); err != nil {
		t.Fatal(err)
	}
	if st := db.CacheStats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry re-planned)", st.Misses)
	}
}

// TestCreateIndexInvalidatesStmts: index creation changes the planner's
// access-path choice, so cached statements are dropped and the next
// Prepare picks the index.
func TestCreateIndexInvalidatesStmts(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	src := `MATCH (p:Person {name: $n}) RETURN p.age`
	before, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.Signature(), "IndexScan") {
		t.Fatalf("pre-index plan already uses an index: %s", before.Signature())
	}
	if err := db.CreateIndex("Person", "name", HybridIndex); err != nil {
		t.Fatal(err)
	}
	if st := db.CacheStats(); st.Size != 0 {
		t.Errorf("cache size = %d after CreateIndex, want 0", st.Size)
	}
	after, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.Signature(), "IndexScan") {
		t.Errorf("post-index plan still scans: %s", after.Signature())
	}
}

// TestUpdateGuard: update plans on always-rolled-back entry points fail
// loudly instead of silently discarding the writes.
func TestUpdateGuard(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	create := &query.Plan{Root: &query.CreateNode{Label: "Person", Props: []query.PropSpec{
		{Key: "name", Val: &query.Const{Val: "ghost"}},
	}}}
	if _, err := db.QueryCtx(context.Background(), create, nil); !errors.Is(err, ErrUpdatePlan) {
		t.Fatalf("Query: err = %v, want ErrUpdatePlan", err)
	}
	if _, err := db.QueryModeCtx(context.Background(), create, nil, Parallel); !errors.Is(err, ErrUpdatePlan) {
		t.Fatalf("QueryMode: err = %v, want ErrUpdatePlan", err)
	}
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	stmt, err := db.PreparePlan(create)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(context.Background(), stmt, nil); !errors.Is(err, ErrUpdatePlan) {
		t.Fatalf("Session.Query: err = %v, want ErrUpdatePlan", err)
	}
	if db.NodeCount() != 3 {
		t.Fatalf("a rejected update leaked: %d nodes", db.NodeCount())
	}
	// The same plan commits through the update paths.
	if n, err := db.ExecCtx(context.Background(), create, nil); err != nil || n != 1 {
		t.Fatalf("Exec: n=%d err=%v", n, err)
	}
	if n, err := sess.Exec(context.Background(), stmt, nil); err != nil || n != 1 {
		t.Fatalf("Session.Exec: n=%d err=%v", n, err)
	}
	if db.NodeCount() != 5 {
		t.Fatalf("node count = %d, want 5", db.NodeCount())
	}
}

// TestStreamedMatchesMaterialized: the Rows cursor yields exactly what
// the materialized paths do — the one-shot and Session.QueryAll, which
// runs on the caller's goroutine — in every execution mode.
func TestStreamedMatchesMaterialized(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedPeople(t, db, 1000)
	plan := scanAllPlan()
	want, err := db.QueryCtx(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1000 {
		t.Fatalf("materialized %d rows", len(want))
	}
	stmt, err := db.PreparePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, em := range []ExecMode{Interpret, Parallel, JIT, Adaptive} {
		sess := db.NewSession(SessionConfig{Mode: em})
		rows, err := sess.Query(context.Background(), stmt, nil)
		if err != nil {
			t.Fatalf("mode %d: %v", em, err)
		}
		seen := make(map[int64]bool)
		n := 0
		var streamed []int64
		for rows.Next() {
			var v int64
			if err := rows.Scan(&v); err != nil {
				t.Fatalf("mode %d: %v", em, err)
			}
			seen[v] = true
			streamed = append(streamed, v)
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("mode %d: %v", em, err)
		}
		rows.Close()
		if n != len(want) || len(seen) != len(want) {
			t.Fatalf("mode %d: streamed %d rows (%d distinct), want %d", em, n, len(seen), len(want))
		}
		// Row for row, up to the order morsel workers deliver in.
		all, err := sess.QueryAll(context.Background(), stmt, nil)
		if err != nil {
			t.Fatalf("mode %d: QueryAll: %v", em, err)
		}
		materialized := make([]int64, len(all))
		for i, r := range all {
			if len(r) != 1 {
				t.Fatalf("mode %d: QueryAll row %d has %d columns", em, i, len(r))
			}
			materialized[i], _ = r[0].(int64)
		}
		slices.Sort(streamed)
		slices.Sort(materialized)
		if !slices.Equal(streamed, materialized) {
			t.Fatalf("mode %d: QueryAll returned %d rows that differ from the %d streamed", em, len(materialized), len(streamed))
		}
		sess.Close()
	}
}

// TestSessionTimeoutUnexpired: a query that finishes well within the
// session deadline must not report the timer's own cancellation as an
// error (regression: the producer read ctx.Err after releasing the
// deadline timer).
func TestSessionTimeoutUnexpired(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	sess := db.NewSession(SessionConfig{Timeout: time.Minute})
	defer sess.Close()
	stmt := mustPrepare(t, db, `MATCH (p:Person) RETURN p.name`)
	rows, err := sess.QueryAll(context.Background(), stmt, nil)
	if err != nil {
		t.Fatalf("QueryAll: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestRowsEarlyClose: closing a cursor mid-result aborts its transaction
// and reports no error.
func TestRowsEarlyClose(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedPeople(t, db, 10000)
	stmt, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sess := db.NewSession(SessionConfig{Mode: Parallel})
	defer sess.Close()
	rows, err := sess.Query(context.Background(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rows.Next() {
		t.Error("Next returned true after Close")
	}
	if n := db.Engine().ActiveTxs(); n != 0 {
		t.Fatalf("%d transactions still active after Close", n)
	}
	waitGoroutines(t, base)
}

// TestSessionCloseReapsTxs: transactions a closed session owns are
// rolled back, and the session refuses further work.
func TestSessionCloseReapsTxs(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	sess := db.NewSession(SessionConfig{})
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateNode("Person", map[string]any{"name": "orphan"}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("Commit after session close: %v, want ErrTxDone", err)
	}
	if db.NodeCount() != 3 {
		t.Fatalf("orphan write survived: %d nodes", db.NodeCount())
	}
	if _, err := sess.Begin(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Begin on closed session: %v", err)
	}
	if _, err := sess.Query(context.Background(), mustPrepare(t, db, `MATCH (p:Person) RETURN p.name`), nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Query on closed session: %v", err)
	}
}

func mustPrepare(t *testing.T, db *DB, src string) *Stmt {
	t.Helper()
	stmt, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestSessionQueryTx: a statement streamed inside a caller-managed
// transaction observes its uncommitted writes.
func TestSessionQueryTx(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateNode("Person", map[string]any{"name": "dora", "age": int64(99)}); err != nil {
		t.Fatal(err)
	}
	stmt := mustPrepare(t, db, `MATCH (p:Person {name: 'dora'}) RETURN p.age`)
	rows, err := sess.QueryTx(context.Background(), tx, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != int64(99) {
		t.Fatalf("rows = %v", got)
	}
	// The cursor did not end the transaction: it still commits.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.NodeCount() != 4 {
		t.Fatalf("node count = %d", db.NodeCount())
	}
}

// TestSessionCloseWithInflightRows: closing the session under a cursor
// that is mid-stream aborts the backing transaction; the cursor
// surfaces ErrTxDone (or session-closed) at its next record rather
// than wedging or leaking the transaction.
func TestSessionCloseWithInflightRows(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	sess := db.NewSession(SessionConfig{})
	stmt := mustPrepare(t, db, `MATCH (p:Person) RETURN p.name`)
	rows, err := sess.Query(context.Background(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pull one record so the producer goroutine is demonstrably live.
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Drain whatever was already in flight; the stream must terminate.
	for rows.Next() {
	}
	if err := rows.Err(); err != nil && !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("rows.Err after session close = %v", err)
	}
	if err := rows.Close(); err != nil && !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("rows.Close after session close = %v", err)
	}
}

// TestSessionCloseTruncatesMultiBatchRows: with a result of many batches
// the producer is still scanning when the session closes under it (one
// batch consumed, at most two more in flight), so rows are missing and
// the cursor must say so. Rows.finish used to cancel with errRowsClosed
// before asking whether the cursor had been closed, which turned every
// ErrTxDone into success. A deliberate Rows.Close mid-stream still
// reports nil (TestRowsEarlyClose).
func TestSessionCloseTruncatesMultiBatchRows(t *testing.T) {
	db := openTestDB(t, DRAM)
	const n = 10 * rowsBatchSize
	seedPeople(t, db, n)
	stmt, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{Mode: Interpret})
	rows, err := sess.Query(context.Background(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	got := 1
	for rows.Next() {
		got++
	}
	if got >= n {
		t.Fatalf("stream delivered all %d rows after the session closed", got)
	}
	if err := rows.Err(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("rows.Err after %d of %d rows = %v, want ErrTxDone", got, n, err)
	}
	if err := rows.Close(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("rows.Close = %v, want the same ErrTxDone", err)
	}
	if n := db.Engine().ActiveTxs(); n != 0 {
		t.Fatalf("%d transactions still active", n)
	}
}

// TestSessionMaxTxs: the transaction bound rejects Begin, Query and
// Exec with ErrSessionLimit once the session owns MaxTxs live
// transactions, and frees capacity when one ends.
func TestSessionMaxTxs(t *testing.T) {
	db := openTestDB(t, DRAM)
	// More rows than the producer can hand over unread (one batch in the
	// channel, one in its hands): it stays parked, and its transaction
	// live, until the cursor is closed below.
	seedPeople(t, db, 4*rowsBatchSize)
	sess := db.NewSession(SessionConfig{MaxTxs: 2})
	defer sess.Close()

	tx1, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(context.Background(), stmt, nil) // second tx
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Begin(); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("Begin over limit = %v, want ErrSessionLimit", err)
	}
	if _, err := sess.Query(context.Background(), stmt, nil); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("Query over limit = %v, want ErrSessionLimit", err)
	}
	if _, err := sess.Exec(context.Background(), stmt, nil); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("Exec over limit = %v, want ErrSessionLimit", err)
	}
	// Finishing the cursor releases its transaction: capacity returns.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	tx2, err := sess.Begin()
	if err != nil {
		t.Fatalf("Begin after release: %v", err)
	}
	tx2.Abort()
	tx1.Abort()
}

// TestSessionMaxTxsConcurrentBegin: hammering Begin from many
// goroutines never lets the session exceed its bound — successes plus
// the live set stay consistent under the race.
func TestSessionMaxTxsConcurrentBegin(t *testing.T) {
	db := openTestDB(t, DRAM)
	const limit = 4
	sess := db.NewSession(SessionConfig{MaxTxs: limit})
	defer sess.Close()

	const goroutines = 32
	var (
		mu   sync.Mutex
		held []*Tx
	)
	var wg sync.WaitGroup
	var limited atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx, err := sess.Begin()
				if errors.Is(err, ErrSessionLimit) {
					limited.Add(1)
					// Free capacity so other goroutines make progress.
					mu.Lock()
					if n := len(held); n > 0 {
						victim := held[n-1]
						held = held[:n-1]
						mu.Unlock()
						victim.Abort()
					} else {
						mu.Unlock()
					}
					continue
				}
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				mu.Lock()
				if len(held) >= limit {
					mu.Unlock()
					t.Errorf("session exceeded MaxTxs: %d live", len(held)+1)
					tx.Abort()
					return
				}
				held = append(held, tx)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if limited.Load() == 0 {
		t.Fatal("ErrSessionLimit never observed under contention")
	}
	for _, tx := range held {
		tx.Abort()
	}
}
