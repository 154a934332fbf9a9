//go:build !race

package core

import "testing"

// TestInsertAllocBudget pins what a warm single-relationship insert and
// its commit allocate through core.Tx when no older reader is active: no
// version chain, chain entry, retained version or GC list is touched, and
// the dictionary probes of the label and key allocate nothing. It measures
// 19; what an allocation profile of the loop shows, per insert:
//
//   - Begin: the Tx;
//   - encodeProps: the sorted key slice and the encoded property slice;
//   - CreateRel: the relationship record, its dirty version and dirtyObj
//     (place takes the slot and stores the record without allocating);
//   - Tx.lock of the source and destination nodes: versionOf's record
//     copy and dirty version, and the dirtyObj — three each;
//   - track: the write-set map, its first bucket, and the commit-order
//     slice growing to 1, 2 and 4 entries;
//   - commitShards: the lock-order slice, about one insert in two;
//   - pmemobj: the commit's lane transaction (planGroup's plan and the
//     one SnapshotAll it covers allocate nothing warm).
func TestInsertAllocBudget(t *testing.T) {
	e, err := Open(Config{Mode: PMem, PoolSize: 64 << 20, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	setup := e.Begin()
	a := mustCreateNode(t, setup, "Person", nil)
	b := mustCreateNode(t, setup, "Person", nil)
	mustCommit(t, setup)
	props := map[string]any{"creationDate": int64(7)}
	insert := func() {
		tx := e.Begin()
		if _, err := tx.CreateRel(a, b, "KNOWS", props); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insert() // warm: the dictionary holds the label and key, the table a chunk
	const budget = 21
	if allocs := testing.AllocsPerRun(200, insert); allocs > budget {
		t.Errorf("a warm insert and commit allocate %.1f times, budget %d", allocs, budget)
	}
}
