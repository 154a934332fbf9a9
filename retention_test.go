package poseidon

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"poseidon/internal/query"
)

// A run hands emit one row buffer it rewrites (query.Prepared.RunCtx), so
// every entry point that returns rows copies them. These tests keep the
// rows of one run, run the same statement on the same session again with
// other parameters, and check the kept rows did not change.

// retentionDB holds 60 Person nodes in 6 groups of 10, indexed by group.
func retentionDB(t *testing.T) *DB {
	t.Helper()
	db := openTestDB(t, DRAM)
	tx := db.Begin()
	for i := 0; i < 60; i++ {
		props := map[string]any{"num": int64(i), "grp": int64(i % 6), "name": fmt.Sprintf("p%02d", i)}
		if _, err := tx.CreateNode("Person", props); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Person", "grp", HybridIndex); err != nil {
		t.Fatal(err)
	}
	return db
}

// retentionPlans are the statements under test, each answering the 10
// members of group $g as (num, name) rows.
func retentionPlans() map[string]*query.Plan {
	cols := []query.Expr{&query.Prop{Col: 0, Key: "num"}, &query.Prop{Col: 0, Key: "name"}}
	indexed := func() query.Op {
		return &query.IndexScan{Label: "Person", Key: "grp", Value: &query.Param{Name: "g"}}
	}
	scanned := func() query.Op {
		return &query.Filter{
			Input: &query.NodeScan{Label: "Person"},
			Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "grp"}, R: &query.Param{Name: "g"}},
		}
	}
	orderBy := func(in query.Op) query.Op {
		return &query.OrderBy{Input: in, Key: &query.Prop{Col: 0, Key: "num"}, Desc: true}
	}
	return map[string]*query.Plan{
		"indexscan":         {Root: &query.Project{Input: indexed(), Cols: cols}},
		"indexscan-orderby": {Root: &query.Project{Input: orderBy(indexed()), Cols: cols}},
		"scan":              {Root: &query.Project{Input: scanned(), Cols: cols}},
		"scan-orderby":      {Root: &query.Project{Input: orderBy(scanned()), Cols: cols}},
	}
}

// wantGroup is group g's answer, sorted.
func wantGroup(g int) [][]any {
	var rows [][]any
	for i := g; i < 60; i += 6 {
		rows = append(rows, []any{int64(i), fmt.Sprintf("p%02d", i)})
	}
	return rows
}

// sorted returns rows ordered by their first column (the Parallel and
// Adaptive answers of an unordered plan come in morsel order).
func sorted(rows [][]any) [][]any {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b []any) int { return int(a[0].(int64) - b[0].(int64)) })
	return out
}

// checkRetained fetches group 1 through fetch, fetches the other groups,
// and checks group 1's rows, then and after.
func checkRetained(t *testing.T, fetch func(g int) ([][]any, error)) {
	t.Helper()
	kept, err := fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sorted(kept); !reflect.DeepEqual(got, wantGroup(1)) {
		t.Fatalf("group 1: %v, want %v", got, wantGroup(1))
	}
	for g := 2; g < 6; g++ {
		rows, err := fetch(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := sorted(rows); !reflect.DeepEqual(got, wantGroup(g)) {
			t.Fatalf("group %d: %v, want %v", g, got, wantGroup(g))
		}
	}
	if got := sorted(kept); !reflect.DeepEqual(got, wantGroup(1)) {
		t.Errorf("group 1's rows changed under later runs: %v, want %v", got, wantGroup(1))
	}
}

func TestRowsRetainedAcrossRuns(t *testing.T) {
	db := retentionDB(t)
	ctx := context.Background()
	for name, plan := range retentionPlans() {
		stmt, err := db.PreparePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ExecMode{Interpret, Parallel, Adaptive} {
			sess := db.NewSession(SessionConfig{Mode: mode, Workers: 2})
			params := func(g int) query.Params { return query.Params{"g": int64(g)} }
			t.Run(fmt.Sprintf("%s/%s/QueryAll", name, mode), func(t *testing.T) {
				checkRetained(t, func(g int) ([][]any, error) { return sess.QueryAll(ctx, stmt, params(g)) })
			})
			t.Run(fmt.Sprintf("%s/%s/QueryTxCtx", name, mode), func(t *testing.T) {
				tx := db.Begin()
				defer tx.Abort()
				checkRetained(t, func(g int) ([][]any, error) { return db.QueryTxCtx(ctx, tx, plan, params(g), mode) })
			})
			t.Run(fmt.Sprintf("%s/%s/Rows", name, mode), func(t *testing.T) {
				checkRetained(t, func(g int) ([][]any, error) {
					rows, err := sess.Query(ctx, stmt, params(g))
					if err != nil {
						return nil, err
					}
					var out [][]any
					for rows.Next() {
						vals, err := rows.Values()
						if err != nil {
							return nil, err
						}
						out = append(out, vals)
					}
					if err := rows.Close(); err != nil {
						return nil, err
					}
					return out, nil
				})
			})
			sess.Close()
		}
	}
}

// TestQueryEachBufferIsTheCallers: QueryEach hands fn one buffer it
// rewrites row to row; a caller that copies what it keeps gets the answer.
func TestQueryEachBufferIsTheCallers(t *testing.T) {
	db := retentionDB(t)
	stmt, err := db.PreparePlan(retentionPlans()["indexscan-orderby"])
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	var rows [][]any
	if err := sess.QueryEach(context.Background(), stmt, query.Params{"g": int64(2)}, func(vals []any) error {
		rows = append(rows, slices.Clone(vals))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sorted(rows); !reflect.DeepEqual(got, wantGroup(2)) {
		t.Errorf("QueryEach: %v, want %v", got, wantGroup(2))
	}
	// A QueryAll from inside fn runs on a reader of its own.
	var inner [][]any
	if err := sess.QueryEach(context.Background(), stmt, query.Params{"g": int64(3)}, func([]any) error {
		if inner == nil {
			inner, err = sess.QueryAll(context.Background(), stmt, query.Params{"g": int64(4)})
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := sorted(inner); !reflect.DeepEqual(got, wantGroup(4)) {
		t.Errorf("nested QueryAll: %v, want %v", got, wantGroup(4))
	}
}
