package poseidon

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"poseidon/internal/query"
)

// seedPeople commits n Person nodes in batches.
func seedPeople(t testing.TB, db *DB, n int) {
	t.Helper()
	const batch = 5000
	for i := 0; i < n; i += batch {
		tx := db.Begin()
		for j := i; j < i+batch && j < n; j++ {
			if _, err := tx.CreateNode("Person", map[string]any{"v": int64(j)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// scanAllPlan reads one property per Person node, so the scan touches
// (simulated) persistent memory for every record.
func scanAllPlan() *query.Plan {
	return &query.Plan{Root: &query.Project{
		Input: &query.NodeScan{Label: "Person"},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "v"}},
	}}
}

// waitGoroutines polls until the goroutine count drops back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > baseline %d", runtime.NumGoroutine(), base)
}

// TestDeadlineCancelsAllModes is the acceptance scenario: a 1ms deadline
// on a long scan returns context.DeadlineExceeded in all four execution
// modes, the transaction is aborted, and no worker goroutine survives.
func TestDeadlineCancelsAllModes(t *testing.T) {
	db := openTestDB(t, PMem)
	seedPeople(t, db, 40000)
	plan := scanAllPlan()
	for _, em := range []ExecMode{Interpret, Parallel, JIT, Adaptive} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := db.QueryModeCtx(ctx, plan, nil, em)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("mode %d: err = %v, want DeadlineExceeded", em, err)
		}
		if n := db.Engine().ActiveTxs(); n != 0 {
			t.Fatalf("mode %d: %d transactions still active after cancellation", em, n)
		}
		waitGoroutines(t, base)
	}
	// The engine is unharmed: the same scan completes when given time.
	rows, err := db.QueryCtx(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40000 {
		t.Fatalf("post-cancel scan found %d rows, want 40000", len(rows))
	}
}

// TestCancelMidStream cancels the context after consuming one row of a
// streaming cursor, in every execution mode.
func TestCancelMidStream(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedPeople(t, db, 20000)
	stmt, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	for _, em := range []ExecMode{Interpret, Parallel, JIT, Adaptive} {
		base := runtime.NumGoroutine()
		sess := db.NewSession(SessionConfig{Mode: em})
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := sess.Query(ctx, stmt, nil)
		if err != nil {
			t.Fatalf("mode %d: %v", em, err)
		}
		if !rows.Next() {
			t.Fatalf("mode %d: no first row (err %v)", em, rows.Err())
		}
		cancel()
		for rows.Next() {
			// Drain buffered batches until cancellation lands.
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %d: Err = %v, want Canceled", em, err)
		}
		rows.Close()
		if n := db.Engine().ActiveTxs(); n != 0 {
			t.Fatalf("mode %d: %d transactions still active", em, n)
		}
		sess.Close()
		waitGoroutines(t, base)
	}
}

// TestExecCtxCancelledCommitsNothing checks that a cancelled update
// never half-applies: either everything or nothing becomes visible.
func TestExecCtxCancelledCommitsNothing(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedPeople(t, db, 1000)
	before := db.NodeCount()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Exec must refuse to commit anything
	plan := &query.Plan{Root: &query.CreateNode{
		Input: &query.NodeScan{Label: "Person"},
		Label: "Copy",
	}}
	if _, err := db.ExecCtx(ctx, plan, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if db.Engine().ActiveTxs() != 0 {
		t.Fatal("transaction leaked")
	}
	rows, err := db.QueryCtx(context.Background(), &query.Plan{Root: &query.NodeScan{Label: "Copy"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("%d Copy nodes visible after cancelled Exec", len(rows))
	}
	if db.NodeCount() != before {
		t.Fatalf("node count moved from %d to %d", before, db.NodeCount())
	}
}

// TestSessionTimeout checks the session-level default deadline.
func TestSessionTimeout(t *testing.T) {
	db := openTestDB(t, PMem)
	seedPeople(t, db, 40000)
	stmt, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{Mode: Parallel, Timeout: time.Millisecond})
	defer sess.Close()
	if _, err := sess.QueryAll(context.Background(), stmt, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n := db.Engine().ActiveTxs(); n != 0 {
		t.Fatalf("%d transactions still active", n)
	}
}
