package query

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/index"
)

// reusePlans covers every operator that keeps state from one tuple to the
// next: Limit's count, Distinct's seen-set, OrderBy's buffer, HashJoin's
// table, CountAgg's count, and the output tuples and slabs of the
// pipeline operators under them. $min changes what each one sees.
func reusePlans() map[string]*Plan {
	adult := func() Op {
		return &Filter{
			Input: &NodeScan{Label: "Person"},
			Pred:  &Cmp{Op: Ge, L: &Prop{Col: 0, Key: "age"}, R: &Param{Name: "min"}},
		}
	}
	return map[string]*Plan{
		"limit": {Root: &Limit{
			Input: &Project{Input: adult(), Cols: []Expr{&Prop{Col: 0, Key: "name"}}},
			N:     2,
		}},
		"distinct": {Root: &Project{
			Input: &Distinct{
				Input: &GetNode{
					Input:  &Expand{Input: adult(), Col: 0, Dir: Both, RelLabel: "knows"},
					RelCol: 1, End: Other, OtherCol: 0,
				},
				Key: &Prop{Col: 2, Key: "name"},
			},
			Cols: []Expr{&Prop{Col: 2, Key: "name"}},
		}},
		"orderby-limit": {Root: &Project{
			Input: &OrderBy{Input: adult(), Key: &Prop{Col: 0, Key: "age"}, Desc: true, Limit: 2},
			Cols:  []Expr{&Prop{Col: 0, Key: "name"}, &Prop{Col: 0, Key: "age"}},
		}},
		"hashjoin": {Root: &Project{
			Input: &HashJoin{
				Left: &GetNode{
					Input:  &Expand{Input: &NodeScan{Label: "Post"}, Col: 0, Dir: Out, RelLabel: "hasCreator"},
					RelCol: 1, End: Dst,
				},
				Right: adult(),
				LKey:  &IDOf{Col: 2},
				RKey:  &IDOf{Col: 0},
			},
			Cols: []Expr{&Prop{Col: 0, Key: "content"}, &Prop{Col: 3, Key: "name"}},
		}},
		"count": {Root: &CountAgg{
			Input: &Expand{Input: adult(), Col: 0, Dir: Out, RelLabel: "knows"},
		}},
	}
}

// TestPreparedRunReuse: a Prepared's pooled instances answer every run as
// a freshly prepared plan does — with the parameters changing from run to
// run, right after a run that was cancelled mid-result or whose emit
// stopped early, and from 8 goroutines at once (run under -race).
func TestPreparedRunReuse(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	bg := context.Background()
	collect := func(pr *Prepared, min int64) ([]Row, error) {
		tx := e.Begin()
		defer tx.Abort()
		return pr.CollectCtx(bg, tx, Params{"min": min})
	}
	mins := []int64{20, 22, 24, 25, 21}
	for name, plan := range reusePlans() {
		t.Run(name, func(t *testing.T) {
			want := map[int64][]Row{}
			for _, min := range mins {
				fresh, err := Prepare(e, plan)
				if err != nil {
					t.Fatal(err)
				}
				if want[min], err = collect(fresh, min); err != nil {
					t.Fatal(err)
				}
			}
			if len(want[20]) == 0 {
				t.Fatal("the plan answers nothing: the test compares empty results")
			}
			pr, err := Prepare(e, plan)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string, min int64) {
				t.Helper()
				got, err := collect(pr, min)
				if err != nil {
					t.Fatalf("%s: min %d: %v", when, min, err)
				}
				if !reflect.DeepEqual(got, want[min]) {
					t.Fatalf("%s: min %d: got %v, a fresh Prepare %v", when, min, got, want[min])
				}
			}

			for round := 0; round < 3; round++ {
				for _, min := range mins {
					check(fmt.Sprintf("round %d", round), min)
				}
			}

			// Cancelled after the first row: the operators are left mid-run.
			ctx, cancel := context.WithCancel(bg)
			tx := e.Begin()
			err = pr.RunCtx(ctx, tx, Params{"min": int64(20)}, func(Row) bool { cancel(); return true })
			tx.Abort()
			cancel()
			if len(want[20]) > 1 && err != context.Canceled {
				t.Fatalf("cancelled run: err %v, want context.Canceled", err)
			}
			check("after a cancelled run", 20)

			// An emit that stops at the first row.
			tx = e.Begin()
			rows := 0
			if err := pr.RunCtx(bg, tx, Params{"min": int64(20)}, func(Row) bool { rows++; return false }); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			if rows != 1 {
				t.Fatalf("an emit that stops got %d rows, want 1", rows)
			}
			check("after an emit that stopped early", 20)

			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						min := mins[(g+i)%len(mins)]
						got, err := collect(pr, min)
						if err == nil && !reflect.DeepEqual(got, want[min]) {
							err = fmt.Errorf("goroutine %d: min %d: got %v, want %v", g, min, got, want[min])
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestWarmPreparedSeesRebuiltIndex: the engine caches one IndexRef per
// index, and a rebuild that replaces the trees must drop it. Otherwise a
// warm Prepared keeps reading the closed trees, which an insert after the
// rebuild never reaches.
func TestWarmPreparedSeesRebuiltIndex(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	if err := e.CreateIndex("Person", "age", index.Volatile); err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Root: &Project{
		Input: &IndexScan{Label: "Person", Key: "age", Value: &Param{Name: "a"}},
		Cols:  []Expr{&Prop{Col: 0, Key: "name"}},
	}}
	pr, err := Prepare(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pr *Prepared) []Row {
		t.Helper()
		tx := e.Begin()
		defer tx.Abort()
		rows, err := pr.CollectCtx(context.Background(), tx, Params{"a": int64(22)})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	warm := run(pr)
	if len(warm) != 1 {
		t.Fatalf("%d rows before the rebuild, want 1", len(warm))
	}
	before, _ := e.IndexFor("Person", "age")
	if err := e.RebuildVolatileIndexes(); err != nil {
		t.Fatal(err)
	}
	if after, _ := e.IndexFor("Person", "age"); after == before {
		t.Fatal("the index reference cached before the rebuild survived it")
	}
	if got := run(pr); !reflect.DeepEqual(got, warm) {
		t.Fatalf("after the rebuild: %v, before it %v", got, warm)
	}

	tx := e.Begin()
	if _, err := tx.CreateNode("Person", map[string]any{"name": "late", "age": int64(22)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Prepare(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, want := run(pr), run(fresh)
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after an insert: the warm Prepared answers %v, a fresh one %v (want 2 rows)", got, want)
	}
}

// TestCollectedRowsOutliveLaterRuns: RunCtx rewrites one row buffer for
// every row of every run, so CollectCtx copies; the rows it returned stay
// as they were while the instance runs on.
func TestCollectedRowsOutliveLaterRuns(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	tx := e.Begin()
	defer tx.Abort()
	ctx := context.Background()
	for name, plan := range reusePlans() {
		pr, err := Prepare(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := pr.CollectCtx(ctx, tx, Params{"min": int64(21)})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(kept)
		for _, min := range []int64{20, 23, 22, 24} {
			if _, err := pr.CollectCtx(ctx, tx, Params{"min": min}); err != nil {
				t.Fatal(err)
			}
		}
		if got := fmt.Sprint(kept); got != want {
			t.Errorf("%s: rows collected first changed under later runs: %s, were %s", name, got, want)
		}
	}
}

// TestKeptTuplesOwnScannedProps: a table scan's walker rewrites one
// property buffer row after row, so a keeper a scan feeds — OrderBy, the
// HashJoin build side, the morsel loop's gather — keeps owned copies.
// Each plan sorts scanned rows (joined, in two of them, with a scanned
// build side, with Distinct and Limit in between in the others) and reads
// both sides' properties after the sort, through a pooled instance twice
// and through the morsel loop at 2 workers, whose gathered rows span
// several morsels.
func TestKeptTuplesOwnScannedProps(t *testing.T) {
	const persons, groups = 700, 7
	e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	bl := e.NewBulkLoader()
	for g := 0; g < groups; g++ {
		if _, err := bl.AddNode("Group", map[string]any{"num": int64(g), "title": fmt.Sprintf("g%d", g)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < persons; i++ {
		if _, err := bl.AddNode("Person", map[string]any{"num": int64(i), "grp": int64(i % groups), "name": fmt.Sprintf("p%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}

	scan := func(label string, between bool) Op {
		var op Op = &NodeScan{Label: label}
		if between {
			op = &Limit{Input: &Distinct{Input: op, Key: &Prop{Col: 0, Key: "num"}}, N: persons}
		}
		return op
	}
	byNum := func(in Op) Op { return &OrderBy{Input: in, Key: &Prop{Col: 0, Key: "num"}} }
	prop := func(col int, key string) Expr { return &Prop{Col: col, Key: key} }
	plans := map[string]*Plan{}
	for _, between := range []bool{false, true} {
		suffix := ""
		if between {
			suffix = "-distinct-limit"
		}
		plans["orderby"+suffix] = &Plan{Root: &Project{
			Input: byNum(scan("Person", between)),
			Cols:  []Expr{prop(0, "num"), prop(0, "name")},
		}}
		plans["hashjoin-orderby"+suffix] = &Plan{Root: &Project{
			Input: byNum(&HashJoin{Left: scan("Person", between), Right: scan("Group", between),
				LKey: prop(0, "grp"), RKey: prop(0, "num")}),
			Cols: []Expr{prop(0, "num"), prop(0, "name"), prop(1, "num"), prop(1, "title")},
		}}
	}
	want := func(join bool) string {
		var rows []string
		for i := 0; i < persons; i++ {
			if join {
				rows = append(rows, fmt.Sprintf("%d p%03d %d g%d", i, i, i%groups, i%groups))
			} else {
				rows = append(rows, fmt.Sprintf("%d p%03d", i, i))
			}
		}
		return fmt.Sprint(rows)
	}
	bg := context.Background()
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			pr, err := Prepare(e, plan)
			if err != nil {
				t.Fatal(err)
			}
			wanted := want(strings.HasPrefix(name, "hashjoin"))
			check := func(how string, run func(tx *core.Tx, emit func(Row) bool) error) {
				t.Helper()
				tx := e.Begin()
				defer tx.Abort()
				var rows []string
				var decodeErr error
				err := run(tx, func(r Row) bool {
					var cols []string
					for _, v := range r {
						gv, err := e.DecodeValue(v)
						if err != nil {
							decodeErr = err
							return false
						}
						cols = append(cols, fmt.Sprint(gv))
					}
					rows = append(rows, strings.Join(cols, " "))
					return true
				})
				if err = errors.Join(err, decodeErr); err != nil {
					t.Fatalf("%s: %v", how, err)
				}
				if got := fmt.Sprint(rows); got != wanted {
					t.Fatalf("%s: %d rows\n%.300s…\nwant\n%.300s…", how, len(rows), got, wanted)
				}
			}
			for i := 0; i < 2; i++ {
				check(fmt.Sprintf("RunCtx #%d", i+1), func(tx *core.Tx, emit func(Row) bool) error {
					return pr.RunCtx(bg, tx, nil, emit)
				})
			}
			check("RunParallelCtx at 2 workers", func(tx *core.Tx, emit func(Row) bool) error {
				return pr.RunParallelCtx(bg, tx, nil, 2, emit)
			})
		})
	}
}
