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

func TestRandomPlansJITMatchesInterpreter(t *testing.T) {
	e, _ := buildGraph(t, core.DRAM)
	j, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260705))
	for i := 0; i < 60; i++ {
		plan := randomPlan(rng)
		pr, err := query.Prepare(e, plan)
		if err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		want, err := pr.CollectCtx(context.Background(), tx, nil)
		if err != nil {
			tx.Abort()
			t.Fatalf("plan %d interp: %v\n%s", i, err, plan.Signature())
		}
		var got []query.Row
		if _, err := j.RunCtx(context.Background(), tx, plan, nil, func(r query.Row) bool {
			got = append(got, r)
			return true
		}); err != nil {
			tx.Abort()
			t.Fatalf("plan %d jit: %v\n%s", i, err, plan.Signature())
		}
		tx.Abort()

		// Plans without Limit must match as multisets; Limit makes result
		// choice order-dependent, so compare counts only there.
		if hasLimit(plan.Root) {
			if len(got) != len(want) {
				t.Fatalf("plan %d (limit): jit %d rows, interp %d\n%s",
					i, len(got), len(want), plan.Signature())
			}
			continue
		}
		if !equalMultiset(got, want) {
			t.Fatalf("plan %d differs (%d vs %d rows)\n%s",
				i, len(got), len(want), plan.Signature())
		}
	}
}

func hasLimit(op query.Op) bool {
	for cur := op; cur != nil; cur = childOf(cur) {
		if _, ok := cur.(*query.Limit); ok {
			return true
		}
	}
	return false
}

func equalMultiset(a, b []query.Row) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	key := func(r query.Row) string {
		s := ""
		for _, v := range r {
			s += fmt.Sprintf("%d/%d|", v.Type, v.Raw)
		}
		return s
	}
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
