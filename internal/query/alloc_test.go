//go:build !race

package query

import (
	"context"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/storage"
)

// TestWarmPreparedRunLinksOnly pins what one more run of a prepared
// indexed point read costs once Prepare has done its part: no dictionary
// probe — the device loads of a run are exactly those of the index lookup
// and the record read it performs, measured here through core directly —
// and a fixed number of allocations. The parameters are integers because
// binding a string parameter interns it, which is a dictionary access of
// the binding, not of the statement.
func TestWarmPreparedRunLinksOnly(t *testing.T) {
	e, _, _ := testGraph(t, core.PMem)
	if err := e.CreateIndex("Person", "age", index.Hybrid); err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(e, &Plan{Root: &Project{
		Input: &IndexScan{Label: "Person", Key: "age", Value: &Param{Name: "a"}},
		Cols:  []Expr{&Prop{Col: 0, Key: "name"}, &Prop{Col: 0, Key: "age"}, &IDOf{Col: 0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Abort()
	ctx := context.Background()
	params := Params{"a": int64(22)}
	rows := 0
	run := func() {
		rows = 0
		if err := pr.RunCtx(ctx, tx, params, func(Row) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the simulated CPU cache and the transaction's read set
	if rows != 1 {
		t.Fatalf("rows = %d, want 1", rows)
	}

	reads := func(f func()) uint64 {
		stats := &e.Device().Stats
		pre := stats.Snapshot()
		f()
		return stats.Snapshot().Sub(pre).Reads
	}
	ref, ok := e.IndexFor("Person", "age")
	if !ok {
		t.Fatal("no index")
	}
	want := reads(func() {
		snaps, err := tx.IndexedLookup(ref, storage.IntValue(22))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("IndexedLookup: %d snapshots, err %v", len(snaps), err)
		}
	})
	if want == 0 {
		t.Fatal("the index lookup charged no device load: the reference measures nothing")
	}
	if got := reads(run); got != want {
		t.Errorf("a warm run charged %d device loads, the index lookup and record read alone %d: the statement still probes the dictionary", got, want)
	}

	// The run takes a linked instance from the Prepared's pool: no Ctx,
	// parameter map, closure or index reference is made, the row it emits
	// is the instance's own, and so are IndexScan's and Project's output
	// tuples. What is left: the index lookup's id buffer and property slab
	// (dropped with each run) and this test's emit closure.
	const budget = 3
	if allocs := testing.AllocsPerRun(200, run); allocs > budget {
		t.Errorf("a warm run allocates %.0f times, budget %d", allocs, budget)
	}
}
