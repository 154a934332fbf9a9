//go:build !race

package poseidon

import (
	"context"
	"testing"

	"poseidon/internal/query"
)

// TestQueryAllAllocBudget pins what Session.QueryAll adds to the
// synchronous materializing path it wraps: a warm indexed point read
// through the session allocates what db.collect does for the same
// statement in a transaction the caller already owns, plus the session's
// bookkeeping — the implicit transaction (two) and the closure that ends
// it. No producer goroutine, channels, cancel context or batch: with
// those the session added 13.
func TestQueryAllAllocBudget(t *testing.T) {
	db := openTestDB(t, DRAM)
	tx := db.Begin()
	for i := 0; i < 1000; i++ {
		if _, err := tx.CreateNode("Person", map[string]any{"num": int64(i), "name": "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Person", "num", HybridIndex); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.PreparePlan(&query.Plan{Root: &query.Project{
		Input: &query.IndexScan{Label: "Person", Key: "num", Value: &query.Param{Name: "n"}},
		Cols:  []query.Expr{&query.IDOf{Col: 0}, &query.Prop{Col: 0, Key: "name"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	params := query.Params{"n": int64(7)}
	check := func(rows [][]any, err error) {
		if err != nil || len(rows) != 1 {
			t.Fatalf("%d rows, err %v", len(rows), err)
		}
	}

	owned := db.Begin()
	defer owned.Abort()
	collect := testing.AllocsPerRun(200, func() {
		check(db.collect(ctx, owned, stmt, params, Interpret, 1))
	})
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	queryAll := testing.AllocsPerRun(200, func() {
		check(sess.QueryAll(ctx, stmt, params))
	})
	const bookkeeping = 3
	if queryAll > collect+bookkeeping {
		t.Errorf("QueryAll allocates %.0f times, db.collect in an owned transaction %.0f: the session adds %.0f, budget %d",
			queryAll, collect, queryAll-collect, bookkeeping)
	}
}
