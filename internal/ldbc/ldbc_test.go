package ldbc

import (
	"context"
	"fmt"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/diskstore"
	"poseidon/internal/index"
	"poseidon/internal/jit"
	"poseidon/internal/query"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	return Generate(Config{Persons: 60, Seed: 7})
}

func loadedEngine(t *testing.T, ds *Dataset, mode core.Mode) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{Mode: mode, PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	kind := index.Hybrid
	if mode == core.DRAM {
		kind = index.Volatile
	}
	if err := ds.LoadCore(e, true, kind); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Persons: 50, Seed: 3})
	b := Generate(Config{Persons: 50, Seed: 3})
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed produced different sizes")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Label != b.Nodes[i].Label {
			t.Fatalf("node %d label differs", i)
		}
		for k, v := range a.Nodes[i].Props {
			if b.Nodes[i].Props[k] != v {
				t.Fatalf("node %d prop %s differs", i, k)
			}
		}
	}
	c := Generate(Config{Persons: 50, Seed: 4})
	if len(c.Edges) == len(a.Edges) {
		t.Log("different seeds produced same edge count (possible but unlikely)")
	}
}

func TestGenerateShape(t *testing.T) {
	ds := Generate(Config{Persons: 100, Seed: 1})
	if len(ds.PersonIDs) != 100 {
		t.Errorf("persons = %d", len(ds.PersonIDs))
	}
	if len(ds.PostIDs) != 500 {
		t.Errorf("posts = %d, want 5x persons", len(ds.PostIDs))
	}
	if len(ds.CommentIDs) != 1000 {
		t.Errorf("comments = %d, want 10x persons", len(ds.CommentIDs))
	}
	// Messages must dominate the node count (SNB: "message activities
	// are the bulk of the data").
	msgs := len(ds.PostIDs) + len(ds.CommentIDs)
	if msgs*2 < len(ds.Nodes) {
		t.Errorf("messages (%d) are not the bulk of %d nodes", msgs, len(ds.Nodes))
	}
	// Every edge endpoint is in range.
	for _, e := range ds.Edges {
		if e.Src < 0 || e.Src >= len(ds.Nodes) || e.Dst < 0 || e.Dst >= len(ds.Nodes) {
			t.Fatalf("edge out of range: %+v", e)
		}
	}
}

func TestLoadCoreAndCounts(t *testing.T) {
	ds := smallDataset(t)
	e := loadedEngine(t, ds, core.DRAM)
	if got := e.NodeCount(); got != uint64(len(ds.Nodes)) {
		t.Errorf("nodes = %d, want %d", got, len(ds.Nodes))
	}
	if got := e.RelCount(); got != uint64(len(ds.Edges)) {
		t.Errorf("rels = %d, want %d", got, len(ds.Edges))
	}
}

func TestAllSRQueriesRunOnAllEngines(t *testing.T) {
	ds := smallDataset(t)
	e := loadedEngine(t, ds, core.DRAM)
	j, err := jit.New(e)
	if err != nil {
		t.Fatal(err)
	}
	pg := NewParamGen(ds, 99)

	for _, q := range SRQueries() {
		for _, useIndex := range []bool{false, true} {
			name := q.Name()
			if useIndex {
				name += "-i"
			}
			t.Run(name, func(t *testing.T) {
				plan, err := SRPlan(q, useIndex)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := query.Prepare(e, plan)
				if err != nil {
					t.Fatal(err)
				}
				params := pg.SRParams(q)

				tx := e.Begin()
				defer tx.Abort()
				interp, err := pr.CollectCtx(context.Background(), tx, params)
				if err != nil {
					t.Fatal(err)
				}

				// JIT must agree with the interpreter on the full result
				// multiset (order may differ only within OrderBy ties).
				var jitRows []query.Row
				if _, err := j.RunCtx(context.Background(), tx, plan, params, func(r query.Row) bool {
					jitRows = append(jitRows, r)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(jitRows) != len(interp) {
					t.Fatalf("jit rows = %d, interp = %d", len(jitRows), len(interp))
				}
				if !sameRowMultiset(jitRows, interp) {
					t.Errorf("jit and interpreter row sets differ:\njit    %v\ninterp %v", jitRows, interp)
				}

				// Parallel interpretation must agree too.
				var parRows int
				if err := pr.RunParallelCtx(context.Background(), tx, params, 4, func(query.Row) bool { parRows++; return true }); err != nil {
					t.Fatal(err)
				}
				if parRows != len(interp) {
					t.Errorf("parallel rows = %d, interp = %d", parRows, len(interp))
				}
			})
		}
	}
}

func TestSRPlansReturnPlausibleResults(t *testing.T) {
	ds := smallDataset(t)
	e := loadedEngine(t, ds, core.DRAM)
	pg := NewParamGen(ds, 5)

	// SR1 returns exactly one profile row for an existing person.
	plan, _ := SRPlan(QueryID{1, ""}, true)
	pr, _ := query.Prepare(e, plan)
	tx := e.Begin()
	defer tx.Abort()
	rows, err := pr.CollectCtx(context.Background(), tx, pg.SRParams(QueryID{1, ""}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("SR1 returned %d rows, want 1", len(rows))
	}
	if len(rows[0]) != 8 {
		t.Errorf("SR1 row has %d columns, want 8", len(rows[0]))
	}

	// SR2 returns at most 10 rows ordered by creationDate desc.
	plan2, _ := SRPlan(QueryID{2, "post"}, true)
	pr2, _ := query.Prepare(e, plan2)
	// Pick a hub person (low id: power-law author assignment) to have posts.
	rows2, err := pr2.CollectCtx(context.Background(), tx, query.Params{"id": int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) > 10 {
		t.Errorf("SR2 returned %d rows, limit is 10", len(rows2))
	}
	for i := 1; i < len(rows2); i++ {
		if rows2[i-1][2].Int() < rows2[i][2].Int() {
			t.Fatalf("SR2 not sorted desc: %v then %v", rows2[i-1][2].Int(), rows2[i][2].Int())
		}
	}

	// SR4 on a known post returns its content.
	plan4, _ := SRPlan(QueryID{4, "post"}, true)
	pr4, _ := query.Prepare(e, plan4)
	rows4, err := pr4.CollectCtx(context.Background(), tx, query.Params{"id": int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows4) != 1 {
		t.Fatalf("SR4 rows = %d", len(rows4))
	}
}

func TestAllIUQueriesMutateEngine(t *testing.T) {
	ds := smallDataset(t)
	e := loadedEngine(t, ds, core.DRAM)
	j, _ := jit.New(e)
	pg := NewParamGen(ds, 11)

	for _, q := range IUQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			plan, err := IUPlan(q, true)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := query.Prepare(e, plan)
			if err != nil {
				t.Fatal(err)
			}
			relsBefore := e.RelCount()

			// Interpreted execution.
			tx := e.Begin()
			if _, err := pr.CollectCtx(context.Background(), tx, pg.IUParams(q)); err != nil {
				tx.Abort()
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if e.RelCount() <= relsBefore {
				t.Errorf("IU%d added no relationships", q.Num)
			}

			// JIT execution with fresh parameters.
			relsBefore = e.RelCount()
			tx2 := e.Begin()
			if _, err := j.RunCtx(context.Background(), tx2, plan, pg.IUParams(q), func(query.Row) bool { return true }); err != nil {
				tx2.Abort()
				t.Fatal(err)
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
			if e.RelCount() <= relsBefore {
				t.Errorf("IU%d (jit) added no relationships", q.Num)
			}
		})
	}
	if _, err := IUPlan(QueryID{Num: 2}, false); err == nil {
		t.Error("IU without indexes should be rejected")
	}
}

// sameRowMultiset compares two row sets ignoring order.
func sameRowMultiset(a, b []query.Row) bool {
	key := func(r query.Row) string {
		s := ""
		for _, v := range r {
			s += fmt.Sprintf("%d:%d|", v.Type, v.Raw)
		}
		return s
	}
	count := map[string]int{}
	for _, r := range a {
		count[key(r)]++
	}
	for _, r := range b {
		count[key(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestDiskWorkloadMirrorsEngine(t *testing.T) {
	ds := smallDataset(t)
	e := loadedEngine(t, ds, core.DRAM)
	s := diskstore.Open(diskstore.Config{Lat: &diskstore.Latencies{}})
	ds.LoadDisk(s)
	pg := NewParamGen(ds, 21)

	// Row counts of every SR query must match between the PMem engine and
	// the disk baseline (same data, same semantics).
	for _, q := range SRQueries() {
		plan, _ := SRPlan(q, true)
		pr, _ := query.Prepare(e, plan)
		for rep := 0; rep < 3; rep++ {
			params := pg.SRParams(q)
			tx := e.Begin()
			rows, err := pr.CollectCtx(context.Background(), tx, params)
			if err != nil {
				t.Fatal(err)
			}
			tx.Abort()

			dtx := s.Begin()
			dn, err := RunSRDisk(dtx, q, params)
			dtx.Abort()
			if err != nil {
				t.Fatalf("%s: disk error: %v", q.Name(), err)
			}
			if dn != len(rows) {
				t.Errorf("%s: disk rows = %d, engine rows = %d (params %v)", q.Name(), dn, len(rows), params)
			}
		}
	}

	// IU queries run on the disk baseline too.
	for _, q := range IUQueries() {
		params := pg.IUParams(q)
		dtx := s.Begin()
		if err := RunIUDisk(dtx, q, params); err != nil {
			dtx.Abort()
			t.Fatalf("IU%d disk: %v", q.Num, err)
		}
		dtx.Commit()
	}
}

// filterAfterRead rewrites a plan into the shape its Expands had before
// relationship labels were pushed down into the adjacency read: walk the
// whole list, then drop the other labels with a filter. It returns the
// rewritten operator and its tuple width.
func filterAfterRead(t *testing.T, op query.Op) (_ query.Op, w int) {
	t.Helper()
	switch o := op.(type) {
	case *query.NodeScan, *query.IndexScan:
		return op, 1
	case *query.Expand:
		in, w := filterAfterRead(t, o.Input)
		return &query.Filter{
			Input: &query.Expand{Input: in, Col: o.Col, Dir: o.Dir},
			Pred:  &query.HasLabel{Col: w, Label: o.RelLabel},
		}, w + 1
	// Every other operator is copied onto its rewritten input.
	case *query.Filter:
		c := *o
		c.Input, w = filterAfterRead(t, o.Input)
		return &c, w
	case *query.GetNode:
		c := *o
		c.Input, w = filterAfterRead(t, o.Input)
		return &c, w + 1
	case *query.OrderBy:
		c := *o
		c.Input, w = filterAfterRead(t, o.Input)
		return &c, w
	case *query.Project:
		c := *o
		c.Input, w = filterAfterRead(t, o.Input)
		return &c, w
	}
	t.Fatalf("filterAfterRead: unexpected operator %T in an SR plan", op)
	return nil, 0
}

// TestLabelFirstExpandsMatchFilterAfterRead: on every SR query — SR3
// expands `knows` in Both directions — and under all four execution
// modes, pushing the relationship label into the adjacency walk returns
// the rows that walking every relationship and filtering afterwards does.
func TestLabelFirstExpandsMatchFilterAfterRead(t *testing.T) {
	ds := smallDataset(t)
	e := loadedEngine(t, ds, core.DRAM)
	j, err := jit.New(e)
	if err != nil {
		t.Fatal(err)
	}
	pg := NewParamGen(ds, 17)
	bothRows := 0 // SR3's, so the Both-direction case cannot pass empty
	for _, q := range SRQueries() {
		for _, useIndex := range []bool{false, true} {
			plan, err := SRPlan(q, useIndex)
			if err != nil {
				t.Fatal(err)
			}
			refRoot, _ := filterAfterRead(t, plan.Root)
			ref, err := query.Prepare(e, &query.Plan{Root: refRoot})
			if err != nil {
				t.Fatal(err)
			}
			pr, err := query.Prepare(e, plan)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				params := pg.SRParams(q)
				tx := e.Begin()
				want, err := ref.CollectCtx(context.Background(), tx, params)
				if err != nil {
					t.Fatal(err)
				}
				if q.Num == 3 {
					bothRows += len(want)
				}
				collect := func(run func(emit func(query.Row) bool) error) []query.Row {
					var rows []query.Row
					var slab query.RowSlab // a row is valid for emit's call only
					if err := run(func(r query.Row) bool { rows = append(rows, slab.Copy(r)); return true }); err != nil {
						t.Fatal(err)
					}
					return rows
				}
				modes := map[string][]query.Row{
					"interpret": collect(func(emit func(query.Row) bool) error { return pr.RunCtx(context.Background(), tx, params, emit) }),
					"parallel": collect(func(emit func(query.Row) bool) error {
						return pr.RunParallelCtx(context.Background(), tx, params, 3, emit)
					}),
					"jit": collect(func(emit func(query.Row) bool) error {
						_, err := j.RunCtx(context.Background(), tx, plan, params, emit)
						return err
					}),
					"adaptive": collect(func(emit func(query.Row) bool) error {
						_, err := j.RunAdaptiveCtx(context.Background(), tx, plan, params, 3, emit)
						return err
					}),
				}
				tx.Abort()
				for mode, got := range modes {
					if !sameRowMultiset(got, want) {
						t.Errorf("SR %s (index=%v) %s: %d rows, filter-after-read %d:\n got  %v\n want %v",
							q.Name(), useIndex, mode, len(got), len(want), got, want)
					}
				}
			}
		}
	}
	if bothRows == 0 {
		t.Error("no SR3 trial returned a row: the Both-direction expand went untested")
	}
}
