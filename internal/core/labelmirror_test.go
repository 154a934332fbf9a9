package core

import (
	"reflect"
	"testing"

	"poseidon/internal/storage"
)

// The label mirror over a slot's life: set by the insert, cleared by the
// abort or the GC reclamation that frees the slot, taken over by the slot's
// next occupant, and rebuilt by Reopen.

// oneShardModes runs f on a single-shard engine in each mode, so that
// every insert draws from the same chunk and a freed slot is the next one
// handed out.
func oneShardModes(t *testing.T, f func(t *testing.T, e *Engine)) {
	for _, mode := range []Mode{PMem, DRAM} {
		t.Run(mode.String(), func(t *testing.T) {
			e, err := Open(Config{Mode: mode, PoolSize: 64 << 20, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Close)
			f(t, e)
		})
	}
}

// mirrorAgrees checks every slot of both record tables: an occupied one
// mirrors its record's label or 0, a free one 0.
func mirrorAgrees(t *testing.T, e *Engine) {
	t.Helper()
	for _, tc := range []struct {
		tbl      *storage.Table
		labels   *labelMirror
		labelOff uint64
	}{{e.tables[kindNode], &e.labels[kindNode], storage.NLabel}, {e.tables[kindRel], &e.labels[kindRel], storage.RLabel}} {
		for id := uint64(0); id < tc.tbl.MaxID(); id++ {
			got := tc.labels.get(id)
			if !tc.tbl.Occupied(id) {
				if got != 0 {
					t.Fatalf("free slot %d mirrors label %d", id, got)
				}
				continue
			}
			off, _ := tc.tbl.RecordOffset(id)
			if want := uint32(e.dev.ReadU64(off + tc.labelOff)); got != 0 && got != want {
				t.Fatalf("slot %d mirrors label %d, its record carries %d", id, got, want)
			}
		}
	}
}

// scanIDs returns the ids a node scan for label yields.
func scanIDs(t *testing.T, tx *Tx, label uint32) []uint64 {
	t.Helper()
	var ids []uint64
	it := tx.NewNodeIter(label)
	for {
		ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ids
		}
		ids = append(ids, it.Node().ID)
	}
}

// TestReclaimedSlotTakesNewLabel: GC reclaims a deleted A node, a B node
// reuses its slot, and the scans follow the new occupant.
func TestReclaimedSlotTakesNewLabel(t *testing.T) {
	oneShardModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		keep := mustCreateNode(t, tx, "A", nil)
		gone := mustCreateNode(t, tx, "A", map[string]any{"v": int64(1)})
		mustCommit(t, tx)
		tx = e.Begin()
		if err := tx.DeleteNode(gone); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx) // quiescent: its end reclaims the slot
		if e.tables[kindNode].Occupied(gone) {
			t.Fatal("the deleted node's slot was not reclaimed")
		}
		mirrorAgrees(t, e)

		tx = e.Begin()
		if id := mustCreateNode(t, tx, "B", map[string]any{"v": int64(2)}); id != gone {
			t.Fatalf("the B node went to slot %d, not the reclaimed %d", id, gone)
		}
		mustCommit(t, tx)
		mirrorAgrees(t, e)
		rd := e.Begin()
		defer rd.Abort()
		if got := scanIDs(t, rd, labelCode(t, e, "A")); !reflect.DeepEqual(got, []uint64{keep}) {
			t.Errorf("label-A scan = %v, want [%d]", got, keep)
		}
		if got := scanIDs(t, rd, labelCode(t, e, "B")); !reflect.DeepEqual(got, []uint64{gone}) {
			t.Errorf("label-B scan = %v, want the reused slot [%d]", got, gone)
		}
	})
}

// TestAbortedInsertLeavesNoLabel: an aborted CreateNode's slot mirrors
// nothing, and its next occupant's label is the one the scans see.
func TestAbortedInsertLeavesNoLabel(t *testing.T) {
	oneShardModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		id := mustCreateNode(t, tx, "A", nil)
		if got, want := e.labels[kindNode].get(id), labelCode(t, e, "A"); got != want {
			t.Fatalf("an insert mirrors label %d, want %d", got, want)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := e.labels[kindNode].get(id); got != 0 {
			t.Fatalf("the aborted insert's slot mirrors label %d", got)
		}
		mirrorAgrees(t, e)

		tx = e.Begin()
		if reused := mustCreateNode(t, tx, "B", nil); reused != id {
			t.Fatalf("the B node went to slot %d, not the freed %d", reused, id)
		}
		mustCommit(t, tx)
		rd := e.Begin()
		defer rd.Abort()
		if got := scanIDs(t, rd, labelCode(t, e, "A")); len(got) != 0 {
			t.Errorf("label-A scan = %v, want none", got)
		}
		if got := scanIDs(t, rd, labelCode(t, e, "B")); !reflect.DeepEqual(got, []uint64{id}) {
			t.Errorf("label-B scan = %v, want [%d]", got, id)
		}
	})
}

// TestReopenRebuildsLabelMirror: after a crash with inserts of two labels
// in flight, Reopen mirrors every record it keeps and none it reclaims.
// (TestLabelScansAfterCrash checks the scans and fsck on such an image.)
func TestReopenRebuildsLabelMirror(t *testing.T) {
	e := newTestEngine(t, PMem)
	tx := e.Begin()
	var nodes, rels []uint64
	for i := 0; i < 40; i++ {
		nodes = append(nodes, mustCreateNode(t, tx, []string{"A", "B"}[i%2], map[string]any{"i": int64(i)}))
	}
	for i := 1; i < len(nodes); i++ {
		r, err := tx.CreateRel(nodes[0], nodes[i], []string{"x", "y"}[i%2], nil)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	mustCommit(t, tx)
	inflight := e.Begin()
	var ghosts []uint64
	for i := 0; i < 6; i++ {
		ghosts = append(ghosts, mustCreateNode(t, inflight, []string{"A", "B"}[i%2], nil))
	}

	e2 := reopenAfterCrash(t, e)
	mirrorAgrees(t, e2)
	for _, id := range ghosts {
		if e2.tables[kindNode].Occupied(id) {
			t.Fatalf("in-flight insert %d survived the crash", id)
		}
	}
	for _, id := range nodes {
		if e2.labels[kindNode].get(id) == 0 {
			t.Fatalf("Reopen left committed node %d's label unmirrored", id)
		}
	}
	for _, id := range rels {
		if e2.labels[kindRel].get(id) == 0 {
			t.Fatalf("Reopen left committed relationship %d's label unmirrored", id)
		}
	}
}

// TestMirrorPacksSlotsAndForgetsPastCapacity: four slots share a mirror
// word without disturbing each other, and a label first seen after the
// mirror's 255 codes mirrors as unknown, so its slots are still read.
func TestMirrorPacksSlotsAndForgetsPastCapacity(t *testing.T) {
	var m labelMirror
	for id := uint64(0); id < 8; id++ {
		m.set(id, uint32(100+id%3))
	}
	m.clear(5)
	for id := uint64(0); id < 8; id++ {
		want := uint32(100 + id%3)
		if id == 5 {
			want = 0
		}
		if got := m.get(id); got != want {
			t.Fatalf("slot %d mirrors %d, want %d", id, got, want)
		}
	}
	for code := uint32(1000); code < 1000+300; code++ {
		id := uint64(code) * 4
		m.set(id, code)
		want := code
		if m.n.Load() == 255 && m.find(code) == 0 {
			want = 0
		}
		if got := m.get(id); got != want {
			t.Fatalf("label %d mirrors %d, want %d", code, got, want)
		}
		if m.skips(id, code) {
			t.Fatalf("a scan for label %d passes over its own slot", code)
		}
	}
	if got := m.n.Load(); got != 255 {
		t.Fatalf("mirror holds %d codes, want 255", got)
	}
	if got := m.get(1299 * 4); got != 0 {
		t.Fatalf("the 303rd label mirrors %d, want 0 (unknown)", got)
	}
}
