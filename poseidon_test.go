package poseidon

import (
	"context"
	"sort"
	"strings"
	"testing"

	"poseidon/internal/query"
)

func openTestDB(t *testing.T, mode Mode) *DB {
	t.Helper()
	db, err := Open(Config{Mode: mode, PoolSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func seedSocial(t *testing.T, db *DB) (alice, bob, carol uint64) {
	t.Helper()
	tx := db.Begin()
	var err error
	if alice, err = tx.CreateNode("Person", map[string]any{"name": "alice", "age": int64(30)}); err != nil {
		t.Fatal(err)
	}
	if bob, err = tx.CreateNode("Person", map[string]any{"name": "bob", "age": int64(25)}); err != nil {
		t.Fatal(err)
	}
	if carol, err = tx.CreateNode("Person", map[string]any{"name": "carol", "age": int64(35)}); err != nil {
		t.Fatal(err)
	}
	if _, err = tx.CreateRel(alice, bob, "knows", map[string]any{"since": int64(2019)}); err != nil {
		t.Fatal(err)
	}
	if _, err = tx.CreateRel(bob, carol, "knows", nil); err != nil {
		t.Fatal(err)
	}
	if err = tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return
}

func friendsPlan() *query.Plan {
	return &query.Plan{Root: &query.Project{
		Input: &query.GetNode{
			Input: &query.Expand{
				Input: &query.Filter{
					Input: &query.NodeScan{Label: "Person"},
					Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "name"}, R: &query.Param{Name: "who"}},
				},
				Col: 0, Dir: query.Out, RelLabel: "knows",
			},
			RelCol: 1, End: query.Dst,
		},
		Cols: []query.Expr{&query.Prop{Col: 2, Key: "name"}},
	}}
}

func TestQuickstartAllModes(t *testing.T) {
	for _, mode := range []Mode{PMem, DRAM} {
		t.Run(mode.String(), func(t *testing.T) {
			db := openTestDB(t, mode)
			seedSocial(t, db)
			for _, em := range []ExecMode{Interpret, Parallel, JIT, Adaptive} {
				rows, err := db.QueryModeCtx(context.Background(), friendsPlan(), query.Params{"who": "alice"}, em)
				if err != nil {
					t.Fatalf("mode %d: %v", em, err)
				}
				if len(rows) != 1 || rows[0][0] != "bob" {
					t.Errorf("mode %d: rows = %v, want [[bob]]", em, rows)
				}
			}
		})
	}
}

func TestIndexedQuery(t *testing.T) {
	db := openTestDB(t, PMem)
	seedSocial(t, db)
	if err := db.CreateIndex("Person", "name", HybridIndex); err != nil {
		t.Fatal(err)
	}
	plan := &query.Plan{Root: &query.Project{
		Input: &query.IndexScan{Label: "Person", Key: "name", Value: &query.Param{Name: "n"}},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "age"}},
	}}
	rows, err := db.QueryCtx(context.Background(), plan, query.Params{"n": "carol"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(35) {
		t.Errorf("rows = %v", rows)
	}
}

func TestExecAndCounts(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	if db.NodeCount() != 3 || db.RelCount() != 2 {
		t.Fatalf("counts = %d/%d", db.NodeCount(), db.RelCount())
	}
	n, err := db.ExecCtx(context.Background(), &query.Plan{Root: &query.CreateNode{
		Label: "Person",
		Props: []query.PropSpec{{Key: "name", Val: &query.Param{Name: "n"}}},
	}}, query.Params{"n": "dave"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || db.NodeCount() != 4 {
		t.Errorf("exec rows=%d nodes=%d", n, db.NodeCount())
	}
}

func TestCrashRecoveryThroughFacade(t *testing.T) {
	db, err := Open(Config{Mode: PMem, PoolSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	alice, _, _ := seedSocial(t, db)
	dev := db.Crash()

	db2, err := Reopen(dev, Config{Mode: PMem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx := db2.Begin()
	defer tx.Abort()
	snap, err := tx.GetNode(alice)
	if err != nil {
		t.Fatal(err)
	}
	props, err := db2.Engine().DecodeProps(snap.Props())
	if err != nil {
		t.Fatal(err)
	}
	if props["name"] != "alice" {
		t.Errorf("props after crash = %v", props)
	}
	rows, err := db2.QueryCtx(context.Background(), friendsPlan(), query.Params{"who": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "bob" {
		t.Errorf("friends after crash = %v", rows)
	}
}

func TestSnapshotIsolationThroughFacade(t *testing.T) {
	db := openTestDB(t, PMem)
	alice, _, _ := seedSocial(t, db)

	reader := db.Begin()
	writer := db.Begin()
	if err := writer.SetNodeProps(alice, map[string]any{"age": int64(31)}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	agePlan := &query.Plan{Root: &query.Project{
		Input: &query.NodeByID{Param: "id"},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "age"}},
	}}
	rows, err := db.QueryTxCtx(context.Background(), reader, agePlan, query.Params{"id": int64(alice)}, Interpret)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != int64(30) {
		t.Errorf("old reader sees age %v, want 30", rows[0][0])
	}
	reader.Abort()
	rows, _ = db.QueryCtx(context.Background(), agePlan, query.Params{"id": int64(alice)})
	if rows[0][0] != int64(31) {
		t.Errorf("new reader sees age %v, want 31", rows[0][0])
	}
}

func TestParallelMatchesInterpretOnLargerData(t *testing.T) {
	db := openTestDB(t, DRAM)
	tx := db.Begin()
	for i := 0; i < 3000; i++ {
		if _, err := tx.CreateNode("N", map[string]any{"v": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	plan := &query.Plan{Root: &query.Project{
		Input: &query.Filter{
			Input: &query.NodeScan{Label: "N"},
			Pred:  &query.Cmp{Op: query.Lt, L: &query.Prop{Col: 0, Key: "v"}, R: &query.Const{Val: 50}},
		},
		Cols: []query.Expr{&query.Prop{Col: 0, Key: "v"}},
	}}
	a, err := db.QueryModeCtx(context.Background(), plan, nil, Interpret)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.QueryModeCtx(context.Background(), plan, nil, Parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("row counts: %d vs %d", len(a), len(b))
	}
	sortAny := func(rows [][]any) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].(int64) < rows[j][0].(int64) })
	}
	sortAny(a)
	sortAny(b)
	for i := range a {
		if a[i][0] != b[i][0] {
			t.Fatalf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCypherFacade(t *testing.T) {
	db := openTestDB(t, PMem)
	if _, err := db.CypherCtx(context.Background(), `CREATE (p:Person {name: 'ada', age: 36})`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CypherCtx(context.Background(), `CREATE (p:Person {name: 'bob', age: 25})`, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Person", "name", HybridIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CypherCtx(context.Background(),
		`MATCH (a:Person {name: $a}), (b:Person {name: $b}) CREATE (a)-[:knows {since: 2020}]->(b)`,
		query.Params{"a": "ada", "b": "bob"}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{Interpret, JIT, Adaptive} {
		rows, err := db.CypherModeCtx(context.Background(),
			`MATCH (a:Person)-[r:knows]->(b) WHERE r.since >= 2020 RETURN a.name, b.name, r.since`,
			nil, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if len(rows) != 1 || rows[0][0] != "ada" || rows[0][1] != "bob" || rows[0][2] != int64(2020) {
			t.Errorf("mode %d rows = %v", mode, rows)
		}
	}
	// Updates survive a crash like any transaction.
	dev := db.Crash()
	db2, err := Reopen(dev, Config{Mode: PMem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.CypherCtx(context.Background(), `MATCH (p:Person) RETURN COUNT(*)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != int64(2) {
		t.Errorf("post-crash count = %v", rows[0][0])
	}
}

func TestCypherErrorsSurface(t *testing.T) {
	db := openTestDB(t, DRAM)
	if _, err := db.CypherCtx(context.Background(), `MATCH (p RETURN p`, nil); err == nil {
		t.Error("syntax error not surfaced")
	}
	if _, err := db.CypherCtx(context.Background(), `MATCH (p:Person) RETURN q.name`, nil); err == nil {
		t.Error("unknown variable not surfaced")
	}
}

func TestCypherUpdatesUnderJIT(t *testing.T) {
	db := openTestDB(t, DRAM)
	if err := db.CreateIndex("Person", "name", VolatileIndex); err != nil {
		t.Fatal(err)
	}
	// A standalone multi-create compiled and executed by the JIT.
	if _, err := db.CypherModeCtx(context.Background(),
		`CREATE (f:Forum {title: 'g'})-[:hasModerator]->(p:Person {name: 'mod'})`,
		nil, JIT); err != nil {
		t.Fatal(err)
	}
	if db.NodeCount() != 2 || db.RelCount() != 1 {
		t.Fatalf("counts = %d/%d", db.NodeCount(), db.RelCount())
	}
	// A matched create under JIT (IU-style).
	if _, err := db.CypherModeCtx(context.Background(), `CREATE (q:Person {name: 'solo'})`, nil, JIT); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CypherModeCtx(context.Background(),
		`MATCH (a:Person {name: 'mod'}), (b:Person {name: 'solo'}) CREATE (a)-[:knows]->(b)`,
		nil, JIT); err != nil {
		t.Fatal(err)
	}
	rows, err := db.CypherCtx(context.Background(), `MATCH (a:Person {name: 'mod'})-[:knows]->(b) RETURN b.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "solo" {
		t.Errorf("rows = %v", rows)
	}
}

func TestExplain(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)
	out, err := db.ExplainCypher(`MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"signature:", "NodeScan(Person)", "tail ops:  2", "jit:       compiled", "morsel-driven"} {
		if !containsStr(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// Join plans are honest about their limits.
	join := &query.Plan{Root: &query.HashJoin{
		Left: &query.NodeScan{}, Right: &query.NodeScan{},
		LKey: &query.IDOf{Col: 0}, RKey: &query.IDOf{Col: 0},
	}}
	out = db.Explain(join)
	if !containsStr(out, "interpreter only") || !containsStr(out, "not compilable") {
		t.Errorf("join explain = %s", out)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
