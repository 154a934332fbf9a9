package core

import (
	"testing"

	"poseidon/internal/storage"
)

// Pull-iterator coverage inside the core package (the JIT drives these
// from outside; here we pin their id-range and visibility semantics).

func iterGraph(t *testing.T) (*Engine, []uint64) {
	t.Helper()
	e := newTestEngine(t, DRAM)
	tx := e.Begin()
	ids := make([]uint64, 10)
	for i := range ids {
		label := "A"
		if i%2 == 1 {
			label = "B"
		}
		ids[i] = mustCreateNode(t, tx, label, map[string]any{"i": int64(i)})
	}
	for i := 0; i < 9; i++ {
		if _, err := tx.CreateRel(ids[i], ids[i+1], "next", nil); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	return e, ids
}

func drainNodes(t *testing.T, it *NodeIter) []uint64 {
	t.Helper()
	var out []uint64
	for {
		ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, it.Node().ID)
	}
}

func drainRels(t *testing.T, next func() (bool, error), cur func() RelSnap) []uint64 {
	t.Helper()
	var out []uint64
	for {
		ok, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, cur().ID)
	}
}

func TestNodeIterFullAndLabelFiltered(t *testing.T) {
	e, ids := iterGraph(t)
	tx := e.Begin()
	defer tx.Abort()
	all := drainNodes(t, tx.NewNodeIter(0))
	if len(all) != len(ids) {
		t.Errorf("full iter = %d nodes, want %d", len(all), len(ids))
	}
	code, _ := e.dict.Lookup("B")
	bs := drainNodes(t, tx.NewNodeIter(uint32(code)))
	if len(bs) != 5 {
		t.Errorf("label-B iter = %d nodes, want 5", len(bs))
	}
}

func TestNodeRangeIterBounds(t *testing.T) {
	e, ids := iterGraph(t)
	tx := e.Begin()
	defer tx.Abort()
	got := drainNodes(t, tx.NewNodeRangeIter(ids[3], ids[7], 0))
	if len(got) != 4 || got[0] != ids[3] || got[3] != ids[6] {
		t.Errorf("range [3,7) = %v", got)
	}
	// Range past the table end clips.
	got = drainNodes(t, tx.NewNodeRangeIter(ids[8], 1<<40, 0))
	if len(got) != 2 {
		t.Errorf("clipped range = %d nodes, want 2", len(got))
	}
	// A range spanning exactly the chunk holding the nodes covers them all
	// (one tx places all its nodes in its home shard's chunk).
	cap_ := e.Nodes().ChunkCap()
	chunk := ids[0] / cap_
	got = drainNodes(t, tx.NewNodeRangeIter(chunk*cap_, (chunk+1)*cap_, 0))
	if len(got) != len(ids) {
		t.Errorf("chunk range = %d nodes", len(got))
	}
}

func TestRelItersAndRanges(t *testing.T) {
	e, ids := iterGraph(t)
	tx := e.Begin()
	defer tx.Abort()
	it := tx.NewRelIter(0)
	rels := drainRels(t, it.Next, it.Rel)
	if len(rels) != 9 {
		t.Errorf("rel iter = %d, want 9", len(rels))
	}
	it2 := tx.NewRelRangeIter(rels[2], rels[5], 0)
	mid := drainRels(t, it2.Next, it2.Rel)
	if len(mid) != 3 {
		t.Errorf("rel range = %d, want 3", len(mid))
	}
	cap_ := e.Rels().ChunkCap()
	chunk := rels[0] / cap_
	it3 := tx.NewRelRangeIter(chunk*cap_, (chunk+1)*cap_, 0)
	all := drainRels(t, it3.Next, it3.Rel)
	if len(all) != 9 {
		t.Errorf("rel chunk range = %d", len(all))
	}
	// Adjacency iterators.
	snap, _ := tx.GetNode(ids[4])
	out := tx.NewOutRelIter(snap, 0)
	if got := drainRels(t, out.Next, out.Rel); len(got) != 1 {
		t.Errorf("out adj = %d, want 1", len(got))
	}
	in := tx.NewInRelIter(snap, 0)
	if got := drainRels(t, in.Next, in.Rel); len(got) != 1 {
		t.Errorf("in adj = %d, want 1", len(got))
	}
}

func TestIteratorsSkipInvisible(t *testing.T) {
	e, ids := iterGraph(t)
	del := e.Begin()
	if err := del.DetachDeleteNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, del)
	tx := e.Begin()
	defer tx.Abort()
	got := drainNodes(t, tx.NewNodeIter(0))
	if len(got) != len(ids)-1 {
		t.Errorf("iter after delete = %d nodes, want %d", len(got), len(ids)-1)
	}
	for _, id := range got {
		if id == ids[0] {
			t.Error("deleted node iterated")
		}
	}
}

func TestIndexIterValidatesSnapshot(t *testing.T) {
	e, ids := iterGraph(t)
	if err := e.CreateIndex("A", "i", 0 /* volatile */); err != nil {
		t.Fatal(err)
	}
	tree, ok := e.IndexFor("A", "i")
	if !ok {
		t.Fatal("index missing")
	}
	oldTx := e.Begin() // snapshot before the delete
	del := e.Begin()
	if err := del.DetachDeleteNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, del)

	// Old snapshot still sees the node via the index (chain version).
	var it IndexIter
	if err := it.Reset(oldTx, tree, intVal(0)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
		_ = it.Node()
	}
	if n != 1 {
		t.Errorf("old snapshot index iter = %d hits, want 1", n)
	}
	oldTx.Abort() // quiescent: GC reclaims the node and its index entry

	// After GC, the index no longer returns the id at all.
	tx := e.Begin()
	defer tx.Abort()
	snaps, err := tx.IndexedLookup(tree, intVal(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Errorf("post-GC index lookup = %v, want empty", snaps)
	}
	if tree.Contains(intVal(0), ids[0]) {
		t.Error("index entry survived GC")
	}
}

func TestRebuildVolatileIndexes(t *testing.T) {
	e, ids := iterGraph(t)
	if err := e.CreateIndex("A", "i", 0); err != nil {
		t.Fatal(err)
	}
	if err := e.RebuildVolatileIndexes(); err != nil {
		t.Fatal(err)
	}
	tree, _ := e.IndexFor("A", "i")
	tx := e.Begin()
	defer tx.Abort()
	snaps, err := tx.IndexedLookup(tree, intVal(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].ID != ids[2] {
		t.Errorf("rebuilt index lookup = %v", snaps)
	}
}

func TestEngineAccessors(t *testing.T) {
	e, _ := iterGraph(t)
	if e.Pool() == nil || e.Dict() == nil || e.Nodes() == nil || e.Rels() == nil || e.Props() == nil {
		t.Error("nil accessor")
	}
	if e.AuxRoot() != 0 {
		t.Error("aux root set unexpectedly")
	}
	e.SetAuxRoot(12345)
	if e.AuxRoot() != 12345 {
		t.Error("aux root round trip failed")
	}
}

func intVal(v int64) storage.Value { return storage.IntValue(v) }
