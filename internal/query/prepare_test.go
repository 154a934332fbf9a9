package query

import (
	"context"
	"sync"
	"testing"

	"poseidon/internal/core"
)

// TestSignatureConcurrent: the memoized signature is one value however
// many goroutines ask a fresh plan for it at once (run under -race).
func TestSignatureConcurrent(t *testing.T) {
	plan := &Plan{Root: &Project{
		Input: &Filter{
			Input: &NodeScan{Label: "Person"},
			Pred:  &Cmp{Op: Gt, L: &Prop{Col: 0, Key: "age"}, R: &Param{Name: "min"}},
		},
		Cols: []Expr{&Prop{Col: 0, Key: "name"}},
	}}
	const goroutines = 16
	sigs := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := range sigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sigs[g] = plan.Signature()
		}()
	}
	wg.Wait()
	const want = "NodeScan(Person)|Filter((prop(0,age)>$min))|Project(prop(0,name))"
	for g, s := range sigs {
		if s != want {
			t.Fatalf("goroutine %d got %q, want %q", g, s, want)
		}
	}
}

// TestPrepareLeavesBuildErrorsToTheRun: Prepare compiles eagerly but a
// plan it cannot compile still prepares; the error comes from the run
// that reaches it, every time.
func TestPrepareLeavesBuildErrorsToTheRun(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	pr, err := Prepare(e, &Plan{Root: &Project{
		Input: &NodeScan{Label: "Person"},
		Cols:  []Expr{&Prop{Col: 0, Key: "name"}, &Const{Val: struct{}{}}},
	}})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for i := 0; i < 2; i++ {
		tx := e.Begin()
		_, err := pr.CollectCtx(context.Background(), tx, nil)
		tx.Abort()
		if err == nil {
			t.Fatalf("run %d of a plan with an unencodable constant succeeded", i)
		}
	}
}

// TestPreparedResolvesLateStrings: a label or key the dictionary did not
// hold when the plan was prepared matches nothing — and is found by the
// first run after it appears. Runs share the Prepared from several
// goroutines, so the late resolution is also the one write a Prepared
// sees after Prepare (run under -race).
func TestPreparedResolvesLateStrings(t *testing.T) {
	e, _, _ := testGraph(t, core.DRAM)
	pr, err := Prepare(e, &Plan{Root: &Project{
		Input: &NodeScan{Label: "Ghost"},
		Cols:  []Expr{&Prop{Col: 0, Key: "haunts"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		tx := e.Begin()
		defer tx.Abort()
		rows, err := pr.CollectCtx(context.Background(), tx, nil)
		if err != nil {
			t.Error(err)
		}
		return len(rows)
	}
	if n := count(); n != 0 {
		t.Fatalf("%d Ghost rows before any exists", n)
	}
	tx := e.Begin()
	if _, err := tx.CreateNode("Ghost", map[string]any{"haunts": "attic"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if n := count(); n != 1 {
					t.Errorf("%d Ghost rows after one was committed", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	tx = e.Begin()
	defer tx.Abort()
	rows, err := pr.CollectCtx(context.Background(), tx, nil)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows = %v, err %v", rows, err)
	}
	if s, err := e.DecodeValue(rows[0][0]); err != nil || s != "attic" {
		t.Fatalf("haunts = %v (err %v), want attic", s, err)
	}
}
