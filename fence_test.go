package poseidon

import (
	"context"
	"testing"

	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/pmem"
)

// TestInsertFenceBudget pins what a warm LDBC insert costs the device
// through Session.Exec on a PMem engine: IU1 creates a Person and two
// relationships (1 node + 2 relationships, 5 property records), IU2 one
// relationship between existing nodes.
//
// The commit is an insert's only durable step (DESIGN.md "What an undo
// log owns"): one lane transaction — its publication fence, its flush
// drain, its commit point — plus what the Person's index insert persists
// (one leaf drain per index IU1 touches, one here). An insert stores its
// slot and record at op time without a transaction and releases its
// locks without a fence. Before, IU1 paid 15 drains and 53 line flushes
// (three drains per op-time slot transaction, one per new property
// record's bitmap snapshot, one for the lock release), IU2 8 drains and
// 24 line flushes.
//
// Drains are pinned exactly; line flushes to a bound: 37 and 18 as a
// rule, 45 and 21 under POSEIDON_PMEM_STRICT=1 (CI's strict step runs
// this test), where op time also writes back the lines of each new
// record and its bitmap word, which the strict checker would otherwise
// read as leaked.
func TestInsertFenceBudget(t *testing.T) {
	db, err := Open(Config{Mode: PMem, PoolSize: 64 << 20, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ds := ldbc.Generate(ldbc.Config{Persons: 20, Seed: 42})
	if err := ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
		t.Fatal(err)
	}
	pg := ldbc.NewParamGen(ds, 42)
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	ctx := context.Background()

	for _, tc := range []struct {
		num             int
		drains, flushes uint64
	}{
		{1, 4, 45},
		{2, 3, 21},
	} {
		q := ldbc.IUQueries()[tc.num-1]
		plan, err := ldbc.IUPlan(q, true)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := db.PreparePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		var d pmem.StatsSnapshot
		for i := 0; i < 3; i++ { // the last run is warm
			pre := db.Device().Stats.Snapshot()
			if _, err := sess.Exec(ctx, stmt, pg.IUParams(q)); err != nil {
				t.Fatalf("IU%d: %v", tc.num, err)
			}
			d = db.Device().Stats.Snapshot().Sub(pre)
		}
		if d.Drains != tc.drains {
			t.Errorf("a warm IU%d pays %d drains, want %d", tc.num, d.Drains, tc.drains)
		}
		if d.LineFlushes > tc.flushes {
			t.Errorf("a warm IU%d flushes %d lines, bound %d", tc.num, d.LineFlushes, tc.flushes)
		}
		t.Logf("IU%d: %d drains, %d line flushes, %d block writes", tc.num, d.Drains, d.LineFlushes, d.BlockWrites)
	}
}
