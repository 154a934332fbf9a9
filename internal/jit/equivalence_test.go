package jit

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// Differential testing: random read-only plans must produce identical
// result multisets under the AOT interpreter and the JIT backend. This is
// the compiler's strongest correctness oracle — every operator, filter
// shape and type-specialization path gets cross-checked.

// randomExpr builds a random boolean predicate over a node column. With
// wide it also draws the shapes codegen has no typed comparison for:
// TRUE/FALSE literals under And/Or/Not, float literals, parameters (bound
// by randomParams) and node ids, on either side of a comparison. Without
// it the draws are the ones testdata/ir.golden was generated from.
func randomExpr(rng *rand.Rand, col int, depth int, wide bool) query.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		ops := []query.CmpOp{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge}
		if wide {
			return &query.Cmp{Op: ops[rng.Intn(6)], L: randomOperand(rng, col), R: randomOperand(rng, col)}
		}
		key := []string{"pid", "age"}[rng.Intn(2)]
		op := ops[rng.Intn(6)]
		return &query.Cmp{
			Op: op,
			L:  &query.Prop{Col: col, Key: key},
			R:  &query.Const{Val: int64(rng.Intn(80))},
		}
	}
	sub := func() query.Expr {
		if wide && rng.Intn(4) == 0 {
			return &query.Const{Val: rng.Intn(2) == 0}
		}
		return randomExpr(rng, col, depth-1, wide)
	}
	switch rng.Intn(3) {
	case 0:
		return &query.And{L: sub(), R: sub()}
	case 1:
		return &query.Or{L: sub(), R: sub()}
	default:
		return &query.Not{X: sub()}
	}
}

// randomParams binds the parameters randomOperand draws.
var randomParams = query.Params{"n": int64(40), "f": 33.5}

// randomOperand draws one side of a wide comparison.
func randomOperand(rng *rand.Rand, col int) query.Expr {
	switch rng.Intn(6) {
	case 0, 1:
		return &query.Prop{Col: col, Key: []string{"pid", "age"}[rng.Intn(2)]}
	case 2:
		return &query.IDOf{Col: col}
	case 3:
		return &query.Param{Name: []string{"n", "f"}[rng.Intn(2)]}
	case 4:
		return &query.Const{Val: int64(rng.Intn(80))}
	default:
		return &query.Const{Val: float64(rng.Intn(80)) + 0.5}
	}
}

// randomPlan builds a random single-chain read plan over the test graph;
// wide widens its filters (randomExpr), always filters the scan, and
// draws expansions over every label and labelled endpoint fetches.
func randomPlan(rng *rand.Rand, wide bool) *query.Plan {
	var op query.Op = &query.NodeScan{Label: "Person"}
	cols := 1 // current tuple width; col 0 is a node
	nodeCols := []int{0}

	if wide {
		// Filter every scan, so each plan carries predicates of the shapes
		// above (narrow plans filter about one in three).
		op = &query.Filter{Input: op, Pred: randomExpr(rng, 0, 2, wide)}
	}
	steps := rng.Intn(4)
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0:
			op = &query.Filter{Input: op, Pred: randomExpr(rng, nodeCols[rng.Intn(len(nodeCols))], 2, wide)}
		case 1:
			src := nodeCols[rng.Intn(len(nodeCols))]
			dir := []query.Dir{query.Out, query.In}[rng.Intn(2)]
			rel, label := "knows", ""
			if wide {
				// Walk every relationship of buildTown too, and fetch the
				// endpoint by label: a person, a city, a label no node has.
				rel = []string{"knows", ""}[rng.Intn(2)]
				label = []string{"", "Person", "City", "Nope"}[rng.Intn(4)]
			}
			op = &query.Expand{Input: op, Col: src, Dir: dir, RelLabel: rel}
			relCol := cols
			cols++
			op = &query.GetNode{Input: op, RelCol: relCol, End: query.Dst, Label: label}
			nodeCols = append(nodeCols, cols)
			cols++
		case 2:
			op = &query.Limit{Input: op, N: 1 + rng.Intn(40)}
		case 3:
			// no-op step: keeps plan length distribution varied
		}
	}
	projCol := nodeCols[rng.Intn(len(nodeCols))]
	op = &query.Project{Input: op, Cols: []query.Expr{
		&query.Prop{Col: projCol, Key: "pid"},
		&query.Prop{Col: projCol, Key: "age"},
	}}
	return &query.Plan{Root: op}
}

// TestRandomPlansJITMatchesInterpreter runs each random plan through every
// executor — compiled, morsel-parallel and adaptive at 1, 2 and 4 workers,
// the adaptive ones with the session's code dropped (the run starts
// interpreted and switches) and with it warm — over a table of several
// morsels, and compares with the interpreter's answer.
func TestRandomPlansJITMatchesInterpreter(t *testing.T) {
	e := buildTown(t, 1100)
	if m := query.MorselCount(e.Nodes().MaxID(), e.Nodes().ChunkCap()); m < 4 {
		t.Fatalf("the table has %d morsels, the test needs at least 4", m)
	}
	j, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260705))
	for i := 0; i < 60; i++ {
		plan := randomPlan(rng, true)
		pr, err := query.Prepare(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		type executor struct {
			name string
			run  func(*core.Tx, func(query.Row) bool) error
		}
		adaptive := func(workers int) func(*core.Tx, func(query.Row) bool) error {
			return func(tx *core.Tx, emit func(query.Row) bool) error {
				_, err := j.RunAdaptiveCtx(ctx, tx, plan, randomParams, workers, emit)
				return err
			}
		}
		execs := []executor{{"jit", func(tx *core.Tx, emit func(query.Row) bool) error {
			_, err := j.RunCtx(ctx, tx, plan, randomParams, emit)
			return err
		}}}
		for _, workers := range []int{1, 2, 4} {
			execs = append(execs,
				executor{fmt.Sprintf("parallel/%d", workers), func(tx *core.Tx, emit func(query.Row) bool) error {
					return pr.RunParallelCtx(ctx, tx, randomParams, workers, emit)
				}},
				executor{fmt.Sprintf("adaptive/%d/cold", workers), func(tx *core.Tx, emit func(query.Row) bool) error {
					j.InvalidateSession()
					return adaptive(workers)(tx, emit)
				}},
				executor{fmt.Sprintf("adaptive/%d/warm", workers), adaptive(workers)})
		}

		tx := e.Begin()
		want, all, err := interpreted(ctx, e, tx, plan)
		if err != nil {
			tx.Abort()
			t.Fatalf("plan %d: %v\n%s", i, err, plan.Signature())
		}
		for _, ex := range execs {
			var got []query.Row
			// Unlocked: the drivers call emit from one goroutine at a time.
			if err := ex.run(tx, func(r query.Row) bool {
				got = append(got, r)
				return true
			}); err != nil {
				tx.Abort()
				t.Fatalf("plan %d %s: %v\n%s", i, ex.name, err, plan.Signature())
			}
			if err := sameAnswer(plan, got, want, all); err != nil {
				tx.Abort()
				t.Fatalf("plan %d: %s %v\n%s", i, ex.name, err, plan.Signature())
			}
		}
		tx.Abort()
	}
}

// FuzzRandomPlans draws a wide random plan from each seed and checks the
// compiled program's answer against the interpreter's.
func FuzzRandomPlans(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 20260705} {
		f.Add(seed)
	}
	e := buildTown(f, 1100)
	j, err := New(e)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, seed int64) {
		plan := randomPlan(rand.New(rand.NewSource(seed)), true)
		tx := e.Begin()
		defer tx.Abort()
		want, all, err := interpreted(ctx, e, tx, plan)
		if err != nil {
			t.Fatalf("%v\n%s", err, plan.Signature())
		}
		var got []query.Row
		if _, err := j.RunCtx(ctx, tx, plan, randomParams, func(r query.Row) bool {
			got = append(got, r)
			return true
		}); err != nil {
			t.Fatalf("jit: %v\n%s", err, plan.Signature())
		}
		if err := sameAnswer(plan, got, want, all); err != nil {
			t.Fatalf("jit %v\n%s", err, plan.Signature())
		}
	})
}

// interpreted answers a random plan with the interpreter, bound to
// randomParams: want is the plan's rows, all those of the plan without
// its Limits.
func interpreted(ctx context.Context, e *core.Engine, tx *core.Tx, plan *query.Plan) (want, all []query.Row, err error) {
	collect := func(p *query.Plan) ([]query.Row, error) {
		pr, err := query.Prepare(e, p)
		if err != nil {
			return nil, err
		}
		return pr.CollectCtx(ctx, tx, randomParams)
	}
	if want, err = collect(plan); err != nil {
		return nil, nil, fmt.Errorf("interp: %w", err)
	}
	if all, err = collect(&query.Plan{Root: withoutLimits(plan.Root)}); err != nil {
		return nil, nil, fmt.Errorf("interp without limits: %w", err)
	}
	return want, all, nil
}

// sameAnswer checks an executor's rows against the interpreter's. Plans
// without Limit must match as multisets. A Limit keeps whichever tuples
// arrive first, so with one the rows must come from the unlimited plan's,
// and their count must match unless a Filter above the Limit makes it
// depend on the pick (every person has two knows edges each way: an
// Expand's fan-out does not).
func sameAnswer(plan *query.Plan, got, want, all []query.Row) error {
	limit, filtered := limitShape(plan)
	switch {
	case !limit && !equalMultiset(got, want):
		return fmt.Errorf("differs (%d vs %d rows)", len(got), len(want))
	case limit && !filtered && len(got) != len(want):
		return fmt.Errorf("(limit): %d rows, interp %d", len(got), len(want))
	case limit && !subMultiset(got, all):
		return fmt.Errorf("(limit): returned rows the unlimited plan does not")
	}
	return nil
}

// limitShape reports whether the plan has a Limit and whether the row
// count above its lowest one depends on which tuples the Limit kept: a
// Filter or a labelled GetNode above it drops some, and in a plan that
// expands over every label an Expand's fan-out depends on the node (a
// city has none of a person's knows edges).
func limitShape(p *query.Plan) (limit, filtered bool) {
	ops := p.Split().Ops
	anyLabel := slices.ContainsFunc(ops, func(op query.Op) bool {
		x, ok := op.(*query.Expand)
		return ok && x.RelLabel == ""
	})
	for _, op := range ops {
		switch o := op.(type) {
		case *query.Limit:
			limit = true
		case *query.Filter:
			filtered = filtered || limit
		case *query.GetNode:
			filtered = filtered || limit && o.Label != ""
		case *query.Expand:
			filtered = filtered || limit && anyLabel
		}
	}
	return limit, filtered
}

// buildTown is buildRing's graph of n persons with n/50 cities beside
// it, person i located in city i%(n/50): endpoints of another label for
// the wide random plans' expansions over every label.
func buildTown(t testing.TB, n int) *core.Engine {
	t.Helper()
	e, persons := buildRing(t, core.DRAM, n)
	tx := e.Begin()
	var cities []uint64
	for i := 0; i < n/50; i++ {
		id, err := tx.CreateNode("City", map[string]any{"pid": int64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cities = append(cities, id)
	}
	for i, p := range persons {
		if _, err := tx.CreateRel(p, cities[i%len(cities)], "isLocatedIn", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return e
}

// withoutLimits copies a randomPlan tree, leaving its Limits out.
func withoutLimits(op query.Op) query.Op {
	switch o := op.(type) {
	case *query.Limit:
		return withoutLimits(o.Input)
	case *query.Filter:
		c := *o
		c.Input = withoutLimits(o.Input)
		return &c
	case *query.Expand:
		c := *o
		c.Input = withoutLimits(o.Input)
		return &c
	case *query.GetNode:
		c := *o
		c.Input = withoutLimits(o.Input)
		return &c
	case *query.Project:
		c := *o
		c.Input = withoutLimits(o.Input)
		return &c
	}
	return op
}

func rowKey(r query.Row) string {
	s := ""
	for _, v := range r {
		s += fmt.Sprintf("%d/%d|", v.Type, v.Raw)
	}
	return s
}

// subMultiset reports whether every row of a occurs in b at least as often.
func subMultiset(a, b []query.Row) bool {
	count := map[string]int{}
	for _, r := range b {
		count[rowKey(r)]++
	}
	for _, r := range a {
		k := rowKey(r)
		if count[k]--; count[k] < 0 {
			return false
		}
	}
	return true
}

func equalMultiset(a, b []query.Row) bool {
	return len(a) == len(b) && subMultiset(a, b)
}
