package jit

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/query"
)

// buildGraph creates a small social graph shared by the JIT tests.
func buildGraph(t *testing.T, mode core.Mode) (*core.Engine, []uint64) {
	return buildRing(t, mode, 500)
}

// buildRing creates n persons, each knowing the next and the seventh next.
func buildRing(t testing.TB, mode core.Mode, n int) (*core.Engine, []uint64) {
	t.Helper()
	e, err := core.Open(core.Config{Mode: mode, PoolSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	bl := e.NewBulkLoader()
	var persons []uint64
	for i := 0; i < n; i++ {
		id, err := bl.AddNode("Person", map[string]any{
			"pid": int64(i), "age": int64(20 + i%50),
		})
		if err != nil {
			t.Fatal(err)
		}
		persons = append(persons, id)
	}
	for i := 0; i < n; i++ {
		// Ring plus shortcuts: person i knows i+1 and i+7.
		bl.AddRel(persons[i], persons[(i+1)%n], "knows", map[string]any{"w": int64(i)})
		bl.AddRel(persons[i], persons[(i+7)%n], "knows", nil)
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	return e, persons
}

// plansUnderTest is a matrix of plans whose JIT results must match the
// interpreter exactly.
func plansUnderTest() map[string]*query.Plan {
	return map[string]*query.Plan{
		"scan-all": {Root: &query.NodeScan{Label: "Person"}},
		"filter-project": {Root: &query.Project{
			Input: &query.Filter{
				Input: &query.NodeScan{Label: "Person"},
				Pred:  &query.Cmp{Op: query.Lt, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Const{Val: 25}},
			},
			Cols: []query.Expr{&query.Prop{Col: 0, Key: "pid"}, &query.Prop{Col: 0, Key: "age"}},
		}},
		"param-filter": {Root: &query.Project{
			Input: &query.Filter{
				Input: &query.NodeScan{Label: "Person"},
				Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Param{Name: "p"}},
			},
			Cols: []query.Expr{&query.IDOf{Col: 0}},
		}},
		"one-hop": {Root: &query.Project{
			Input: &query.GetNode{
				Input: &query.Expand{
					Input: &query.Filter{
						Input: &query.NodeScan{Label: "Person"},
						Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Param{Name: "p"}},
					},
					Col: 0, Dir: query.Out, RelLabel: "knows",
				},
				RelCol: 1, End: query.Dst,
			},
			Cols: []query.Expr{&query.Prop{Col: 2, Key: "pid"}},
		}},
		"two-hop": {Root: &query.Project{
			Input: &query.GetNode{
				Input: &query.Expand{
					Input: &query.GetNode{
						Input: &query.Expand{
							Input: &query.Filter{
								Input: &query.NodeScan{Label: "Person"},
								Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Param{Name: "p"}},
							},
							Col: 0, Dir: query.Out, RelLabel: "knows",
						},
						RelCol: 1, End: query.Dst,
					},
					Col: 2, Dir: query.Out, RelLabel: "knows",
				},
				RelCol: 3, End: query.Dst,
			},
			Cols: []query.Expr{&query.Prop{Col: 4, Key: "pid"}},
		}},
		"limit": {Root: &query.Limit{Input: &query.NodeScan{Label: "Person"}, N: 13}},
		"orderby-tail": {Root: &query.Project{
			Input: &query.OrderBy{
				Input: &query.Filter{
					Input: &query.NodeScan{Label: "Person"},
					Pred:  &query.Cmp{Op: query.Lt, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Const{Val: 40}},
				},
				Key: &query.Prop{Col: 0, Key: "pid"}, Desc: true, Limit: 10,
			},
			Cols: []query.Expr{&query.Prop{Col: 0, Key: "pid"}},
		}},
		"count-tail": {Root: &query.CountAgg{
			Input: &query.Expand{
				Input: &query.NodeScan{Label: "Person"},
				Col:   0, Dir: query.Out, RelLabel: "knows",
			},
		}},
		"rel-scan": {Root: &query.Project{
			Input: &query.Filter{
				Input: &query.RelScan{Label: "knows"},
				Pred:  &query.Cmp{Op: query.Lt, L: &query.Prop{Col: 0, Key: "w"}, R: &query.Const{Val: 5}},
			},
			Cols: []query.Expr{&query.Prop{Col: 0, Key: "w"}},
		}},
		"incoming": {Root: &query.CountAgg{
			Input: &query.Expand{
				Input: &query.Filter{
					Input: &query.NodeScan{Label: "Person"},
					Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Param{Name: "p"}},
				},
				Col: 0, Dir: query.In, RelLabel: "knows",
			},
		}},
		"bool-logic": {Root: &query.Project{
			Input: &query.Filter{
				Input: &query.NodeScan{Label: "Person"},
				Pred: &query.And{
					L: &query.Cmp{Op: query.Ge, L: &query.Prop{Col: 0, Key: "age"}, R: &query.Const{Val: 30}},
					R: &query.Or{
						L: &query.Cmp{Op: query.Lt, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Const{Val: 50}},
						R: &query.Cmp{Op: query.Gt, L: &query.Prop{Col: 0, Key: "pid"}, R: &query.Const{Val: 480}},
					},
				},
			},
			Cols: []query.Expr{&query.Prop{Col: 0, Key: "pid"}},
		}},
	}
}

func sortRows(rows []query.Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				if a[k].Type != b[k].Type {
					return a[k].Type < b[k].Type
				}
				return a[k].Int() < b[k].Int()
			}
		}
		return len(a) < len(b)
	})
}

func TestJITMatchesInterpreter(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	params := query.Params{"p": int64(42)}
	for name, plan := range plansUnderTest() {
		t.Run(name, func(t *testing.T) {
			pr, err := query.Prepare(e, plan)
			if err != nil {
				t.Fatal(err)
			}
			tx := e.Begin()
			defer tx.Abort()
			want, err := pr.CollectCtx(context.Background(), tx, params)
			if err != nil {
				t.Fatal(err)
			}
			var got []query.Row
			st, err := j.RunCtx(context.Background(), tx, plan, params, func(r query.Row) bool {
				got = append(got, r)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Compiled {
				t.Error("execution did not use compiled code")
			}
			if len(got) != len(want) {
				t.Fatalf("jit returned %d rows, interpreter %d", len(got), len(want))
			}
			sortRows(got)
			sortRows(want)
			for i := range want {
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Fatalf("row %d col %d: jit %v vs interp %v", i, k, got[i][k], want[i][k])
					}
				}
			}
		})
	}
}

func TestJITAdaptiveMatchesInterpreter(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	plan := plansUnderTest()["bool-logic"]
	pr, _ := query.Prepare(e, plan)
	tx := e.Begin()
	defer tx.Abort()
	want, err := pr.CollectCtx(context.Background(), tx, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []query.Row
	st, err := j.RunAdaptiveCtx(context.Background(), tx, plan, nil, 4, func(r query.Row) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("adaptive returned %d rows, want %d", len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}
	total := st.Adaptive.InterpretedMorsels + st.Adaptive.CompiledMorsels
	if total == 0 {
		t.Error("adaptive processed no morsels")
	}
}

func TestAdaptiveSwitchesToCompiled(t *testing.T) {
	// Pre-compile so the swap happens immediately: every morsel after the
	// first few must run compiled.
	e, _ := buildGraph(t, core.DRAM)
	j, _ := New(e)
	plan := &query.Plan{Root: &query.NodeScan{Label: "Person"}}
	if _, err := j.CompileCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Abort()
	st, err := j.RunAdaptiveCtx(context.Background(), tx, plan, nil, 2, func(query.Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Adaptive.CompiledMorsels == 0 {
		t.Errorf("no morsel ran compiled: %+v", st.Adaptive)
	}
}

func TestJITUpdatePlans(t *testing.T) {
	e, persons := buildGraph(t, core.DRAM)
	j, _ := New(e)
	plan := &query.Plan{Root: &query.SetProps{
		Input: &query.NodeByID{Param: "id"},
		Col:   0,
		Props: []query.PropSpec{{Key: "age", Val: &query.Const{Val: 99}}},
	}}
	tx := e.Begin()
	if _, err := j.RunCtx(context.Background(), tx, plan, query.Params{"id": int64(persons[3])}, func(query.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Verify through the interpreter.
	check := &query.Plan{Root: &query.Project{
		Input: &query.NodeByID{Param: "id"},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "age"}},
	}}
	pr, _ := query.Prepare(e, check)
	tx2 := e.Begin()
	defer tx2.Abort()
	rows, err := pr.CollectCtx(context.Background(), tx2, query.Params{"id": int64(persons[3])})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 99 {
		t.Errorf("age = %d, want 99", rows[0][0].Int())
	}

	// Create a node + relationship through compiled code.
	cr := &query.Plan{Root: &query.CreateNode{
		Label: "Comment",
		Props: []query.PropSpec{{Key: "text", Val: &query.Param{Name: "t"}}},
	}}
	tx3 := e.Begin()
	n := 0
	if _, err := j.RunCtx(context.Background(), tx3, cr, query.Params{"t": "hi"}, func(query.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("create emitted %d rows", n)
	}
}

func TestJITIndexScan(t *testing.T) {
	e, persons := buildGraph(t, core.DRAM)
	if err := e.CreateIndex("Person", "pid", index.Volatile); err != nil {
		t.Fatal(err)
	}
	j, _ := New(e)
	plan := &query.Plan{Root: &query.Project{
		Input: &query.IndexScan{Label: "Person", Key: "pid", Value: &query.Param{Name: "p"}},
		Cols:  []query.Expr{&query.IDOf{Col: 0}},
	}}
	tx := e.Begin()
	defer tx.Abort()
	var got []query.Row
	if _, err := j.RunCtx(context.Background(), tx, plan, query.Params{"p": int64(123)}, func(r query.Row) bool {
		got = append(got, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || uint64(got[0][0].Int()) != persons[123] {
		t.Errorf("index scan = %v, want [%d]", got, persons[123])
	}
}

func TestCompileCacheHitsMemoryAndPMem(t *testing.T) {
	e, _ := buildGraph(t, core.PMem)
	j, _ := New(e)
	plan := plansUnderTest()["filter-project"]

	c1, err := j.CompileCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if c1.FromCache {
		t.Error("first compilation reported a cache hit")
	}
	c2, err := j.CompileCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Error("second compilation did not hit the in-memory cache")
	}

	// Simulate a session restart: in-memory cache gone, persistent cache
	// serves the serialized IR.
	j.InvalidateSession()
	c3, err := j.CompileCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !c3.FromCache {
		t.Error("compilation after session reset did not hit the persistent cache")
	}
	if c3.CompileTime > c1.CompileTime*10 {
		t.Errorf("relink time %v not comparable to compile time %v", c3.CompileTime, c1.CompileTime)
	}

	// The relinked code must produce correct results.
	tx := e.Begin()
	defer tx.Abort()
	n := 0
	if _, err := j.RunCtx(context.Background(), tx, plan, nil, func(query.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Errorf("relinked code returned %d rows, want 25", n)
	}
}

func TestPersistentCacheSurvivesCrash(t *testing.T) {
	e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bl := e.NewBulkLoader()
	for i := 0; i < 50; i++ {
		bl.AddNode("Person", map[string]any{"pid": int64(i)})
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	j, _ := New(e)
	plan := &query.Plan{Root: &query.NodeScan{Label: "Person"}}
	if _, err := j.CompileCtx(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	dev := e.Device()
	e.Close()
	dev.Crash()

	e2, err := core.Reopen(dev, core.Config{Mode: core.PMem})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	j2, err := New(e2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := j2.CompileCtx(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !c.FromCache {
		t.Error("compiled code did not survive the crash")
	}
	tx := e2.Begin()
	defer tx.Abort()
	n := 0
	if _, err := j2.RunCtx(context.Background(), tx, plan, nil, func(query.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("post-crash cached code returned %d rows, want 50", n)
	}
}

func TestJITRejectsJoins(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, _ := New(e)
	plan := &query.Plan{Root: &query.HashJoin{
		Left:  &query.NodeScan{Label: "Person"},
		Right: &query.NodeScan{Label: "Person"},
		LKey:  &query.IDOf{Col: 0},
		RKey:  &query.IDOf{Col: 0},
	}}
	if _, err := j.CompileCtx(context.Background(), plan); err == nil {
		t.Error("compiling a join plan succeeded")
	}
}

func TestCompileTimeGrowsWithOperators(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, _ := New(e)
	small := &query.Plan{Root: &query.NodeScan{Label: "Person"}}
	big := plansUnderTest()["two-hop"]
	cs, err := j.CompileCtx(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := j.CompileCtx(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Prog.fn.NumInstrs() <= cs.Prog.fn.NumInstrs() {
		t.Errorf("bigger plan compiled to fewer instructions: %d vs %d",
			cb.Prog.fn.NumInstrs(), cs.Prog.fn.NumInstrs())
	}
}

func TestJITOnPMemEngine(t *testing.T) {
	// End-to-end on the PMem-mode engine: compiled code runs through the
	// latency-injecting device without issues.
	e, _ := buildGraph(t, core.PMem)
	j, _ := New(e)
	plan := plansUnderTest()["one-hop"]
	tx := e.Begin()
	defer tx.Abort()
	var got []query.Row
	if _, err := j.RunCtx(context.Background(), tx, plan, query.Params{"p": int64(10)}, func(r query.Row) bool {
		got = append(got, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	pids := []int64{}
	for _, r := range got {
		pids = append(pids, r[0].Int())
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	if fmt.Sprint(pids) != "[11 17]" {
		t.Errorf("one-hop from 10 = %v, want [11 17]", pids)
	}
}

// TestCreateSetReturnSeesOwnWrite pins a read-your-own-write the snapshot
// representation must keep: the tuple column CREATE produced is a view of
// the transaction's dirty version, so a SET later in the same statement
// shows through it at RETURN — under the interpreter and the JIT alike.
func TestCreateSetReturnSeesOwnWrite(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, _ := New(e)
	plan := &query.Plan{Root: &query.Project{
		Input: &query.SetProps{
			Input: &query.CreateNode{Label: "Gadget", Props: []query.PropSpec{
				{Key: "v", Val: &query.Const{Val: 1}}, {Key: "keep", Val: &query.Const{Val: 7}},
			}},
			Col:   0,
			Props: []query.PropSpec{{Key: "v", Val: &query.Const{Val: 2}}, {Key: "w", Val: &query.Const{Val: 3}}},
		},
		Cols: []query.Expr{
			&query.Prop{Col: 0, Key: "v"}, &query.Prop{Col: 0, Key: "w"}, &query.Prop{Col: 0, Key: "keep"},
		},
	}}
	pr, err := query.Prepare(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*core.Tx, func(query.Row) bool) error{
		"interpreter": func(tx *core.Tx, emit func(query.Row) bool) error {
			return pr.RunCtx(context.Background(), tx, nil, emit)
		},
		"jit": func(tx *core.Tx, emit func(query.Row) bool) error {
			_, err := j.RunCtx(context.Background(), tx, plan, nil, emit)
			return err
		},
	} {
		tx := e.Begin()
		var rows []query.Row
		if err := run(tx, func(r query.Row) bool { rows = append(rows, r); return true }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tx.Abort()
		if len(rows) != 1 || rows[0][0].Int() != 2 || rows[0][1].Int() != 3 || rows[0][2].Int() != 7 {
			t.Errorf("%s: CREATE … SET … RETURN = %v, want v=2 w=3 keep=7", name, rows)
		}
	}
}
