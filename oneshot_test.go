package poseidon

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// tripCtx cancels itself the n-th time its error is consulted: the engine
// checks the context before every record, so the cancellation lands
// mid-scan on every run.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newTripCtx(n int64) *tripCtx {
	c := &tripCtx{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(n)
	return c
}

func (c *tripCtx) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

func copyPersonsPlan() *query.Plan {
	return &query.Plan{Root: &query.CreateNode{Input: &query.NodeScan{Label: "Person"}, Label: "Copy"}}
}

// TestOneShotsTraceFromTheSession: a one-shot runs in a throw-away
// session, so with tracing on its trace is the session's — rooted at
// session.query or session.exec, with the implicit transaction's
// core.begin and the statement's stmt.run beneath the root.
func TestOneShotsTraceFromTheSession(t *testing.T) {
	db, err := Open(Config{Mode: DRAM, PoolSize: 128 << 20,
		Telemetry: TelemetryConfig{Trace: TraceConfig{Enabled: true, SampleRate: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedSocial(t, db)
	ctx := context.Background()
	alice := query.Params{"who": "alice"}
	for _, c := range []struct {
		name, root string
		run        func() error
	}{
		{"QueryCtx", "session.query", func() error { _, err := db.QueryCtx(ctx, friendsPlan(), alice); return err }},
		{"QueryModeCtx", "session.query", func() error { _, err := db.QueryModeCtx(ctx, friendsPlan(), alice, Parallel); return err }},
		{"ExecCtx", "session.exec", func() error { _, err := db.ExecCtx(ctx, copyPersonsPlan(), nil); return err }},
		{"CypherCtx", "session.exec", func() error { _, err := db.CypherCtx(ctx, `MATCH (p:Person) RETURN p.name`, nil); return err }},
		{"CypherModeCtx", "session.exec", func() error {
			_, err := db.CypherModeCtx(ctx, `CREATE (t:Tag {name: 'x'})`, nil, JIT)
			return err
		}},
	} {
		before := len(db.Traces())
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		traces := db.Traces()
		if len(traces) != before+1 {
			t.Fatalf("%s left %d traces, want one", c.name, len(traces)-before)
		}
		root := traces[before].Root()
		if root.Name != c.root {
			t.Errorf("%s: trace rooted at %q, want %q", c.name, root.Name, c.root)
		}
		for _, child := range []string{"core.begin", "stmt.run"} {
			if !hasChild(traces[before], root.ID, child) {
				t.Errorf("%s: no %s span under the root %q", c.name, child, root.Name)
			}
		}
	}
}

func hasChild(tr *trace.Trace, parent uint64, name string) bool {
	for _, sp := range tr.Spans {
		if sp.Parent == parent && sp.Name == name {
			return true
		}
	}
	return false
}

// TestOneShotsLeaveNothingBehind: however a one-shot ends — rows, a
// refused update plan, a statement error, a cancellation that lands
// mid-scan — its session, transaction and goroutines are gone when it
// returns, and an interrupted update committed nothing.
func TestOneShotsLeaveNothingBehind(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedPeople(t, db, 3000)
	bg := context.Background()
	badParam := query.Params{"who": struct{}{}}
	byName := &query.Plan{Root: &query.Filter{
		Input: &query.NodeScan{Label: "Person"},
		Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "v"}, R: &query.Param{Name: "who"}},
	}}
	for _, c := range []struct {
		name string
		run  func() error
		want error // nil: success; errAny: any error
	}{
		{"QueryCtx rows", func() error { _, err := db.QueryCtx(bg, scanAllPlan(), nil); return err }, nil},
		{"QueryModeCtx update plan", func() error { _, err := db.QueryModeCtx(bg, copyPersonsPlan(), nil, Adaptive); return err }, ErrUpdatePlan},
		{"QueryCtx statement error", func() error { _, err := db.QueryCtx(bg, byName, badParam); return err }, errAny},
		{"ExecCtx statement error", func() error { _, err := db.ExecCtx(bg, byName, badParam); return err }, errAny},
		{"CypherCtx statement error", func() error {
			_, err := db.CypherCtx(bg, `MATCH (p:Person {v: $who}) RETURN p.v`, badParam)
			return err
		}, errAny},
		{"QueryModeCtx cancelled mid-scan", func() error {
			_, err := db.QueryModeCtx(newTripCtx(500), scanAllPlan(), nil, Parallel)
			return err
		}, context.Canceled},
		{"QueryModeCtx adaptive cancelled mid-scan", func() error {
			_, err := db.QueryModeCtx(newTripCtx(500), scanAllPlan(), nil, Adaptive)
			return err
		}, context.Canceled},
		{"ExecCtx cancelled mid-scan", func() error { _, err := db.ExecCtx(newTripCtx(500), copyPersonsPlan(), nil); return err }, context.Canceled},
		{"CypherModeCtx cancelled mid-scan", func() error {
			_, err := db.CypherModeCtx(newTripCtx(500), `MATCH (p:Person) CREATE (c:Copy {v: 1})`, nil, JIT)
			return err
		}, context.Canceled},
	} {
		base := runtime.NumGoroutine()
		err := c.run()
		if ok := errors.Is(err, c.want); !ok && (c.want != errAny || err == nil) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if n := db.Engine().ActiveTxs(); n != 0 {
			t.Errorf("%s left %d transactions active", c.name, n)
		}
		waitGoroutines(t, base)
	}
	rows, err := db.QueryCtx(bg, &query.Plan{Root: &query.NodeScan{Label: "Copy"}}, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("%d Copy nodes visible after interrupted updates (err %v)", len(rows), err)
	}
}

var errAny = errors.New("any error")

// TestCypherCreateReturnsRowsAndCommits: the Cypher one-shot is the
// lifecycle's one caller that needs both the rows and a commit — a CREATE
// returns what its plan emits, one row per created tuple, and a later
// snapshot sees the write.
func TestCypherCreateReturnsRowsAndCommits(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	ctx := context.Background()
	rows, err := db.CypherCtx(ctx, `MATCH (p:Person) CREATE (c:Copy {of: 'person'})`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("CREATE over 3 persons returned %d rows, want 3", len(rows))
	}
	if n := db.Engine().ActiveTxs(); n != 0 {
		t.Fatalf("%d transactions still active", n)
	}
	copies, err := db.CypherCtx(ctx, `MATCH (c:Copy) RETURN c.of`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 3 || copies[0][0] != "person" {
		t.Fatalf("a later snapshot sees %v, want the three copies", copies)
	}
}
