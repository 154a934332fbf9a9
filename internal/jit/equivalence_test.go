package jit

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// Differential testing: random read-only plans must produce identical
// result multisets under the AOT interpreter and the JIT backend. This is
// the compiler's strongest correctness oracle — every operator, filter
// shape and type-specialization path gets cross-checked.

// randomExpr builds a random boolean predicate over a node column.
func randomExpr(rng *rand.Rand, col int, depth int) query.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		key := []string{"pid", "age"}[rng.Intn(2)]
		op := []query.CmpOp{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge}[rng.Intn(6)]
		return &query.Cmp{
			Op: op,
			L:  &query.Prop{Col: col, Key: key},
			R:  &query.Const{Val: int64(rng.Intn(80))},
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &query.And{L: randomExpr(rng, col, depth-1), R: randomExpr(rng, col, depth-1)}
	case 1:
		return &query.Or{L: randomExpr(rng, col, depth-1), R: randomExpr(rng, col, depth-1)}
	default:
		return &query.Not{X: randomExpr(rng, col, depth-1)}
	}
}

// randomPlan builds a random single-chain read plan over the test graph.
func randomPlan(rng *rand.Rand) *query.Plan {
	var op query.Op = &query.NodeScan{Label: "Person"}
	cols := 1 // current tuple width; col 0 is a node
	nodeCols := []int{0}

	steps := rng.Intn(4)
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0:
			op = &query.Filter{Input: op, Pred: randomExpr(rng, nodeCols[rng.Intn(len(nodeCols))], 2)}
		case 1:
			src := nodeCols[rng.Intn(len(nodeCols))]
			dir := []query.Dir{query.Out, query.In}[rng.Intn(2)]
			op = &query.Expand{Input: op, Col: src, Dir: dir, RelLabel: "knows"}
			relCol := cols
			cols++
			op = &query.GetNode{Input: op, RelCol: relCol, End: query.Dst}
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
	e, _ := buildRing(t, core.DRAM, 1100)
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
		plan := randomPlan(rng)
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
				_, err := j.RunAdaptiveCtx(ctx, tx, plan, nil, workers, emit)
				return err
			}
		}
		execs := []executor{{"jit", func(tx *core.Tx, emit func(query.Row) bool) error {
			_, err := j.RunCtx(ctx, tx, plan, nil, emit)
			return err
		}}}
		for _, workers := range []int{1, 2, 4} {
			execs = append(execs,
				executor{fmt.Sprintf("parallel/%d", workers), func(tx *core.Tx, emit func(query.Row) bool) error {
					return pr.RunParallelCtx(ctx, tx, nil, workers, emit)
				}},
				executor{fmt.Sprintf("adaptive/%d/cold", workers), func(tx *core.Tx, emit func(query.Row) bool) error {
					j.InvalidateSession()
					return adaptive(workers)(tx, emit)
				}},
				executor{fmt.Sprintf("adaptive/%d/warm", workers), adaptive(workers)})
		}

		tx := e.Begin()
		want, err := pr.CollectCtx(ctx, tx, nil)
		if err != nil {
			tx.Abort()
			t.Fatalf("plan %d interp: %v\n%s", i, err, plan.Signature())
		}
		unlimited, err := query.Prepare(e, &query.Plan{Root: withoutLimits(plan.Root)})
		if err != nil {
			t.Fatal(err)
		}
		all, err := unlimited.CollectCtx(ctx, tx, nil)
		if err != nil {
			tx.Abort()
			t.Fatalf("plan %d without limits: %v\n%s", i, err, plan.Signature())
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
			// Plans without Limit must match as multisets. A Limit keeps
			// whichever tuples arrive first, so with one the rows must
			// come from the unlimited plan's, and their count must match
			// unless a Filter above the Limit makes it depend on the pick
			// (every person has two knows edges each way: an Expand's
			// fan-out does not).
			if limit, filtered := limitShape(plan); limit {
				if !filtered && len(got) != len(want) {
					t.Fatalf("plan %d (limit): %s %d rows, interp %d\n%s",
						i, ex.name, len(got), len(want), plan.Signature())
				}
				if !subMultiset(got, all) {
					t.Fatalf("plan %d (limit): %s returned rows the unlimited plan does not\n%s",
						i, ex.name, plan.Signature())
				}
				continue
			}
			if !equalMultiset(got, want) {
				t.Fatalf("plan %d: %s differs (%d vs %d rows)\n%s",
					i, ex.name, len(got), len(want), plan.Signature())
			}
		}
		tx.Abort()
	}
}

// limitShape reports whether the plan has a Limit and whether a Filter
// sits above its lowest one.
func limitShape(p *query.Plan) (limit, filtered bool) {
	for _, op := range p.Split().Ops {
		switch op.(type) {
		case *query.Limit:
			limit = true
		case *query.Filter:
			filtered = filtered || limit
		}
	}
	return limit, filtered
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
