package poseidon

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/jit"
	"poseidon/internal/query"
)

// allModes is every execution mode a session can pin.
var allModes = []ExecMode{Interpret, Parallel, JIT, Adaptive}

// interruptQueryAll runs QueryAll on the calling goroutine while another
// waits for the statement's transaction to begin and then calls
// interrupt, so the interruption lands inside the run. fired reports
// whether interrupt was called before QueryAll returned.
func interruptQueryAll(ctx context.Context, db *DB, sess *Session, stmt *Stmt, interrupt func()) (fired bool, err error) {
	stop := make(chan struct{})
	done := make(chan bool)
	go func() {
		for db.Engine().ActiveTxs() == 0 {
			select {
			case <-stop:
				done <- false
				return
			default:
				runtime.Gosched()
			}
		}
		interrupt()
		done <- true
	}()
	_, err = sess.QueryAll(ctx, stmt, nil)
	close(stop)
	return <-done, err
}

// TestQueryAllKeepsTheCursorContract: QueryAll runs the statement on the
// caller's goroutine, and still ends like the cursor it no longer uses. A
// deadline, a cancellation that lands mid-scan and a Session.Close from
// another goroutine each stop it in every execution mode with the right
// error, no transaction or goroutine left behind and the session's MaxTxs
// slot free again.
func TestQueryAllKeepsTheCursorContract(t *testing.T) {
	// As large as TestDeadlineCancelsAllModes' for the same reason: on one
	// CPU neither a timer nor another goroutine gets to run before the
	// scan has been preempted, some 10 ms in.
	db := openTestDB(t, PMem)
	seedPeople(t, db, 40000)
	scan, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	one, err := db.PreparePlan(&query.Plan{Root: &query.NodeByID{Param: "id"}})
	if err != nil {
		t.Fatal(err)
	}
	settled := func(t *testing.T, sess *Session, base int) {
		t.Helper()
		if n := db.Engine().ActiveTxs(); n != 0 {
			t.Fatalf("%d transactions still active", n)
		}
		waitGoroutines(t, base)
		// MaxTxs is 1: the next statement runs only if the slot came back.
		if rows, err := sess.QueryAll(context.Background(), one, query.Params{"id": int64(0)}); err != nil || len(rows) != 1 {
			t.Fatalf("statement after the interrupted one: %d rows, err %v", len(rows), err)
		}
	}
	// On a loaded machine an interruption can come after the scan, while
	// the rows are decoded, or not at all; it has to land once in a few
	// attempts, and no attempt may end with another error.
	landed := func(t *testing.T, want error, attempt func() (bool, error)) {
		t.Helper()
		var fired bool
		for i := 0; i < 5; i++ {
			var err error
			if fired, err = attempt(); errors.Is(err, want) {
				return
			} else if err != nil {
				t.Fatalf("err = %v (interrupted: %v), want %v", err, fired, want)
			}
		}
		t.Fatalf("five scans finished unharmed (the last one interrupted: %v), want %v", fired, want)
	}
	for _, em := range allModes {
		t.Run(em.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			sess := db.NewSession(SessionConfig{Mode: em, MaxTxs: 1})
			defer sess.Close()

			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_, err := sess.QueryAll(ctx, scan, nil)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline: err = %v, want DeadlineExceeded", err)
			}
			settled(t, sess, base)

			landed(t, context.Canceled, func() (bool, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				return interruptQueryAll(ctx, db, sess, scan, cancel)
			})
			settled(t, sess, base)

			landed(t, core.ErrTxDone, func() (bool, error) {
				doomed := db.NewSession(SessionConfig{Mode: em})
				defer doomed.Close()
				return interruptQueryAll(context.Background(), db, doomed, scan, func() { doomed.Close() })
			})
			settled(t, sess, base)
		})
	}
}

// TestQueryAllGuards: the checks Query makes before it starts a cursor
// are QueryAll's too.
func TestQueryAllGuards(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	ctx := context.Background()
	read := mustPrepare(t, db, `MATCH (p:Person) RETURN p.name`)
	create, err := db.PreparePlan(&query.Plan{Root: &query.CreateNode{Label: "Person", Props: []query.PropSpec{
		{Key: "name", Val: &query.Const{Val: "ghost"}},
	}}})
	if err != nil {
		t.Fatal(err)
	}

	sess := db.NewSession(SessionConfig{MaxTxs: 1})
	if _, err := sess.QueryAll(ctx, create, nil); !errors.Is(err, ErrUpdatePlan) {
		t.Fatalf("update plan: err = %v, want ErrUpdatePlan", err)
	}
	if db.NodeCount() != 3 || db.Engine().ActiveTxs() != 0 {
		t.Fatalf("a rejected update left %d nodes, %d active transactions", db.NodeCount(), db.Engine().ActiveTxs())
	}
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueryAll(ctx, read, nil); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("over MaxTxs: err = %v, want ErrSessionLimit", err)
	}
	tx.Abort()
	if n := db.Engine().ActiveTxs(); n != 0 {
		t.Fatalf("a refused statement left %d active transactions", n)
	}
	sess.Close()
	if _, err := sess.QueryAll(ctx, read, nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed session: err = %v, want ErrSessionClosed", err)
	}
	if n := db.Engine().ActiveTxs(); n != 0 {
		t.Fatalf("a closed session's statement left %d active transactions", n)
	}
}

// TestQueryAllProfile: with tracing on, a QueryAll leaves the span tree
// the cursor path left — the session span as root, its core.begin child,
// the statement and the executor — and a failing one carries its error.
func TestQueryAllProfile(t *testing.T) {
	db, err := Open(Config{Mode: DRAM, PoolSize: 128 << 20,
		Telemetry: TelemetryConfig{Enabled: true, Trace: TraceConfig{Enabled: true, SampleRate: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedSocial(t, db)
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	if sess.LastProfile() != nil {
		t.Fatal("a profile before any statement")
	}
	stmt := mustPrepare(t, db, `MATCH (p:Person) RETURN p.name`)
	if _, err := sess.QueryAll(context.Background(), stmt, nil); err != nil {
		t.Fatal(err)
	}
	prof := sess.LastProfile()
	if prof == nil {
		t.Fatal("no profile after QueryAll")
	}
	var names []string
	for _, st := range prof.Stages {
		names = append(names, fmt.Sprintf("%s×%d", st.Name, st.Count))
	}
	sort.Strings(names)
	want := []string{"core.begin×1", "query.interpret×1", "stmt.run×1"}
	if prof.Root != "session.query" || !reflect.DeepEqual(names, want) {
		t.Fatalf("root %q, stages %v; want root session.query, stages %v", prof.Root, names, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.QueryAll(ctx, stmt, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if prof := sess.LastProfile(); prof == nil || !strings.Contains(fmt.Sprint(prof.Stages), "context canceled") {
		t.Fatalf("the cancelled statement's profile records no error: %+v", prof)
	}
}

// TestOnePlanTwoEngines prepares a single *query.Plan on two databases
// whose dictionaries give its label and key strings different codes, and
// runs the two statements alternately in every mode. Codes cached on the
// plan's shared nodes instead of the engine-bound Prepared would make
// the second engine read the first one's.
func TestOnePlanTwoEngines(t *testing.T) {
	a := openTestDB(t, DRAM)
	b := openTestDB(t, DRAM)
	// Shift b's codes: intern unrelated strings before the shared ones.
	tx := b.Begin()
	if _, err := tx.CreateNode("Decoy", map[string]any{"x": "y", "z": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{a, b} {
		seedSocial(t, db)
		if err := db.CreateIndex("Person", "age", HybridIndex); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []string{"Person", "knows", "name", "age"} {
		ca, _ := a.Engine().Dict().Lookup(s)
		cb, _ := b.Engine().Dict().Lookup(s)
		if ca == 0 || cb == 0 || ca == cb {
			t.Fatalf("%q has code %d on one engine and %d on the other: the test needs them different", s, ca, cb)
		}
	}
	plans := map[string]struct {
		plan   *query.Plan
		params query.Params
		want   []string
	}{
		"scan-filter-expand": {friendsPlan(), query.Params{"who": "alice"}, []string{"bob"}},
		"index": {&query.Plan{Root: &query.Project{
			Input: &query.IndexScan{Label: "Person", Key: "age", Value: &query.Param{Name: "a"}},
			Cols:  []query.Expr{&query.Prop{Col: 0, Key: "name"}},
		}}, query.Params{"a": int64(35)}, []string{"carol"}},
		"label-order": {&query.Plan{Root: &query.Project{
			Input: &query.OrderBy{
				Input: &query.Filter{Input: &query.NodeScan{}, Pred: &query.HasLabel{Col: 0, Label: "Person"}},
				Key:   &query.Prop{Col: 0, Key: "age"},
			},
			Cols: []query.Expr{&query.Prop{Col: 0, Key: "name"}},
		}}, nil, []string{"bob", "alice", "carol"}},
	}
	for name, c := range plans {
		sa, err := a.PreparePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.PreparePlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Plan() != sb.Plan() {
			t.Fatal("the two statements do not share the plan")
		}
		for _, em := range allModes {
			for round := 0; round < 2; round++ {
				for _, side := range []struct {
					db   *DB
					stmt *Stmt
				}{{a, sa}, {b, sb}} {
					sess := side.db.NewSession(SessionConfig{Mode: em})
					rows, err := sess.QueryAll(context.Background(), side.stmt, c.params)
					sess.Close()
					if err != nil {
						t.Fatalf("%s, mode %v: %v", name, em, err)
					}
					got := make([]string, len(rows))
					for i, r := range rows {
						got[i], _ = r[0].(string)
					}
					if !reflect.DeepEqual(got, c.want) {
						t.Fatalf("%s, mode %v, round %d: rows %v, want %v", name, em, round, got, c.want)
					}
				}
			}
		}
	}
}

// TestExplainPipelineSignature: Explain derives a plan around the
// streaming pipeline to print its signature; with signatures memoized per
// plan that derived plan must still print the pipeline's own, not the
// whole plan's.
func TestExplainPipelineSignature(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	pipeline := &query.Filter{
		Input: &query.NodeScan{Label: "Person"},
		Pred:  &query.Cmp{Op: query.Gt, L: &query.Prop{Col: 0, Key: "age"}, R: &query.Const{Val: int64(26)}},
	}
	plan := &query.Plan{Root: &query.CountAgg{Input: pipeline}}
	whole := plan.Signature() // memoized before Explain derives from it
	inner := (&query.Plan{Root: pipeline}).Signature()
	if whole == inner {
		t.Fatalf("the plan and its pipeline share the signature %q", whole)
	}
	out := db.Explain(plan)
	if !strings.Contains(out, "signature: "+whole+"\n") || !strings.Contains(out, "pipeline:  "+inner+"\n") {
		t.Fatalf("Explain does not print signature %q and pipeline %q:\n%s", whole, inner, out)
	}
}

// TestLimitCountsOnceInEveryMode: a LIMIT over a scan of many morsels is
// answered once — not once per worker or per morsel — in all four modes at
// 1, 2 and 4 workers, through the cursor and QueryAll alike, and stops the
// scan early: LIMIT 3 reads a prefix of the table, not the table.
func TestLimitCountsOnceInEveryMode(t *testing.T) {
	db := openTestDB(t, DRAM)
	const people = 8000
	seedPeople(t, db, people)
	eng := db.Engine()
	if m := query.MorselCount(eng.Nodes().MaxID(), eng.Nodes().ChunkCap()); m < 16 {
		t.Fatalf("the table has %d morsels, the test needs at least 16", m)
	}
	ctx := context.Background()
	deviceReads := func(run func()) uint64 {
		before := db.Device().Stats.Snapshot().Reads
		run()
		return db.Device().Stats.Snapshot().Reads - before
	}
	whole := deviceReads(func() {
		if rows, err := db.CypherCtx(ctx, `MATCH (p:Person) RETURN p.v`, nil); err != nil || len(rows) != people {
			t.Fatalf("full scan: %d rows, err %v", len(rows), err)
		}
	})
	for _, em := range allModes {
		for _, workers := range []int{1, 2, 4} {
			sess := db.NewSession(SessionConfig{Mode: em, Workers: workers})
			for limit, want := range map[int]int{3: 3, 100: 100, people + 5: people} {
				stmt := mustPrepare(t, db, fmt.Sprintf(`MATCH (p:Person) RETURN p.v LIMIT %d`, limit))
				var all [][]any
				reads := deviceReads(func() {
					var err error
					if all, err = sess.QueryAll(ctx, stmt, nil); err != nil {
						t.Fatal(err)
					}
				})
				if len(all) != want {
					t.Errorf("%v, %d workers: LIMIT %d returned %d rows, want %d", em, workers, limit, len(all), want)
				}
				// At most one morsel per worker is in flight when the third
				// tuple arrives: a third of 16+ morsels at 4 workers.
				if limit == 3 && reads > whole/2 {
					t.Errorf("%v, %d workers: LIMIT 3 made %d device reads, the whole scan %d: the early stop is gone", em, workers, reads, whole)
				}
				rows, err := sess.Query(ctx, stmt, nil)
				if err != nil {
					t.Fatal(err)
				}
				streamed := 0
				for rows.Next() {
					streamed++
				}
				if err := rows.Close(); err != nil || streamed != want {
					t.Errorf("%v, %d workers: cursor over LIMIT %d: %d rows, err %v, want %d", em, workers, limit, streamed, err, want)
				}
			}
			sess.Close()
		}
	}
}

// TestAdaptiveAnswersWhatInterpretAnswers: a join is nothing the compiler
// handles. Interpret, Parallel and Adaptive answer it alike — Adaptive is
// a superset of Interpret — and only the explicit JIT mode refuses; Explain
// names the executor each mode's run picked. Adaptive adapts only where
// there is a morsel loop: a label scan, not an update or an indexed point
// read, which are interpreted.
func TestAdaptiveAnswersWhatInterpretAnswers(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	join := &query.Plan{Root: &query.Project{
		Input: &query.HashJoin{
			Left:  &query.NodeScan{Label: "Person"},
			Right: &query.NodeScan{Label: "Person"},
			LKey:  &query.Prop{Col: 0, Key: "age"},
			RKey:  &query.Prop{Col: 0, Key: "age"},
		},
		Cols: []query.Expr{&query.Prop{Col: 0, Key: "name"}, &query.Prop{Col: 1, Key: "name"}},
	}}
	stmt, err := db.PreparePlan(join)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]any
	for _, em := range allModes {
		sess := db.NewSession(SessionConfig{Mode: em})
		got, err := sess.QueryAll(context.Background(), stmt, nil)
		sess.Close()
		if em == JIT {
			if !errors.Is(err, jit.ErrUnsupported) {
				t.Errorf("explicit JIT over a join: err = %v, want ErrUnsupported", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", em, err)
		}
		sort.Slice(got, func(i, j int) bool { return fmt.Sprint(got[i]) < fmt.Sprint(got[j]) })
		if em == Interpret {
			if want = got; len(want) != 3 {
				t.Fatalf("the self-join on age returned %v, want one row per person", want)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%v returned %v, Interpret %v", em, got, want)
		}
	}
	if out := db.Explain(join); !strings.Contains(out, "interpret→interpret parallel→interpret jit→jit adaptive→interpret") {
		t.Errorf("Explain of a join names other executors:\n%s", out)
	}
	if err := db.CreateIndex("Person", "name", HybridIndex); err != nil {
		t.Fatal(err)
	}
	for src, executors := range map[string]string{
		`MATCH (p:Person) RETURN p.name`:           "interpret→interpret parallel→parallel jit→jit adaptive→adaptive",
		`MATCH (p:Person) SET p.seen = 1`:          "interpret→interpret parallel→interpret jit→jit adaptive→interpret",
		`MATCH (p:Person {name: $n}) RETURN p.age`: "interpret→interpret parallel→interpret jit→jit adaptive→interpret",
	} {
		if out, err := db.ExplainCypher(src); err != nil || !strings.Contains(out, executors) {
			t.Errorf("Explain of %q: err %v, want executors %q in:\n%s", src, err, executors, out)
		}
	}
}
