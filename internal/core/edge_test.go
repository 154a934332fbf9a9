package core

import (
	"errors"
	"fmt"
	"testing"
)

// Edge-case coverage for the transaction API.

func TestCreateRelToMissingNode(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		a := mustCreateNode(t, tx, "P", nil)
		if _, err := tx.CreateRel(a, 9999, "r", nil); !errors.Is(err, ErrNotFound) {
			t.Errorf("CreateRel to missing dst = %v, want ErrNotFound", err)
		}
		tx.Abort()
		tx2 := e.Begin()
		if _, err := tx2.CreateRel(9999, a, "r", nil); !errors.Is(err, ErrNotFound) {
			t.Errorf("CreateRel from missing src = %v, want ErrNotFound", err)
		}
		tx2.Abort()
	})
}

func TestOpsOnDeletedNode(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		id := mustCreateNode(t, setup, "P", nil)
		mustCommit(t, setup)
		del := e.Begin()
		if err := del.DeleteNode(id); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, del)

		tx := e.Begin()
		if err := tx.SetNodeProps(id, map[string]any{"x": int64(1)}); !errors.Is(err, ErrNotFound) {
			t.Errorf("SetNodeProps on deleted = %v, want ErrNotFound", err)
		}
		tx.Abort()
		tx2 := e.Begin()
		if err := tx2.DeleteNode(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete = %v, want ErrNotFound", err)
		}
		tx2.Abort()
	})
}

func TestDeleteInSameTxAsCreate(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		id := mustCreateNode(t, tx, "P", map[string]any{"v": int64(1)})
		if err := tx.DeleteNode(id); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.GetNode(id); err != ErrNotFound {
			t.Errorf("read of self-deleted node = %v", err)
		}
		mustCommit(t, tx)
		if got := e.NodeCount(); got != 0 {
			t.Errorf("node count = %d after create+delete+GC, want 0", got)
		}
	})
}

func TestUpdateThenDeleteSameTx(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		id := mustCreateNode(t, setup, "P", map[string]any{"v": int64(1)})
		mustCommit(t, setup)

		tx := e.Begin()
		if err := tx.SetNodeProps(id, map[string]any{"v": int64(2)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.DeleteNode(id); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tx2 := e.Begin()
		defer tx2.Abort()
		if _, err := tx2.GetNode(id); err != ErrNotFound {
			t.Errorf("node visible after update+delete: %v", err)
		}
	})
}

func TestRelPropertyUpdate(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		a := mustCreateNode(t, setup, "P", nil)
		b := mustCreateNode(t, setup, "P", nil)
		r, _ := setup.CreateRel(a, b, "knows", map[string]any{"w": int64(1)})
		mustCommit(t, setup)

		tx := e.Begin()
		if err := tx.SetRelProps(r, map[string]any{"w": int64(2), "new": "x"}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)

		tx2 := e.Begin()
		defer tx2.Abort()
		snap, err := tx2.GetRel(r)
		if err != nil {
			t.Fatal(err)
		}
		props, _ := e.DecodeProps(snap.Props())
		if props["w"] != int64(2) || props["new"] != "x" {
			t.Errorf("rel props = %v", props)
		}
	})
}

func TestManyRelsBetweenSamePair(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		a := mustCreateNode(t, tx, "P", nil)
		b := mustCreateNode(t, tx, "P", nil)
		const n = 50
		for i := 0; i < n; i++ {
			if _, err := tx.CreateRel(a, b, fmt.Sprintf("r%d", i%5), map[string]any{"i": int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)

		tx2 := e.Begin()
		defer tx2.Abort()
		snap, _ := tx2.GetNode(a)
		count := 0
		tx2.OutRels(snap, func(RelSnap) bool { count++; return true })
		if count != n {
			t.Errorf("out rels = %d, want %d", count, n)
		}
		// Label-filtered iteration through the engine's AOT iterator.
		code, _ := e.dict.Lookup("r2")
		it := tx2.NewOutRelIter(snap, uint32(code))
		filtered := 0
		for {
			ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			filtered++
		}
		if filtered != n/5 {
			t.Errorf("r2-labeled rels = %d, want %d", filtered, n/5)
		}
	})
}

func TestSlotReuseAfterDeleteCycle(t *testing.T) {
	// Create/delete cycles must reuse slots (DG5), not grow the table.
	e := newTestEngine(t, PMem)
	chunks := func() uint64 { return e.tables[kindNode].Chunks() }
	for round := 0; round < 5; round++ {
		tx := e.Begin()
		ids := make([]uint64, 100)
		for i := range ids {
			ids[i] = mustCreateNode(t, tx, "P", map[string]any{"r": int64(round)})
		}
		mustCommit(t, tx)
		del := e.Begin()
		for _, id := range ids {
			if err := del.DeleteNode(id); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, del)
		if e.NodeCount() != 0 {
			t.Fatalf("round %d: %d nodes left", round, e.NodeCount())
		}
	}
	// Per-shard placement can touch one chunk per shard, but cycles must
	// not grow the table beyond that steady state.
	if got, limit := chunks(), uint64(e.Shards()); got > limit {
		t.Errorf("node table grew to %d chunks across delete cycles, want <= %d (slot reuse)", got, limit)
	}
}

func TestEmptyLabelAndNilProps(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		id, err := tx.CreateNode("", nil)
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tx2 := e.Begin()
		defer tx2.Abort()
		snap, err := tx2.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Props(); len(got) != 0 {
			t.Errorf("props = %v, want empty", got)
		}
		if label, _ := e.dict.Decode(uint64(snap.Rec.Label)); label != "" {
			t.Errorf("label = %q, want empty", label)
		}
	})
}

func TestUnsupportedPropertyType(t *testing.T) {
	e := newTestEngine(t, DRAM)
	tx := e.Begin()
	defer tx.Abort()
	if _, err := tx.CreateNode("P", map[string]any{"bad": []int{1, 2}}); err == nil {
		t.Error("slice property accepted")
	}
}

func TestGetNodeOutOfRange(t *testing.T) {
	e := newTestEngine(t, DRAM)
	tx := e.Begin()
	defer tx.Abort()
	if _, err := tx.GetNode(1 << 40); err != ErrNotFound {
		t.Errorf("out-of-range id = %v, want ErrNotFound", err)
	}
	if _, err := tx.GetRel(1 << 40); err != ErrNotFound {
		t.Errorf("out-of-range rel = %v, want ErrNotFound", err)
	}
}

func TestUseAfterEnd(t *testing.T) {
	e := newTestEngine(t, DRAM)
	tx := e.Begin()
	mustCommit(t, tx)
	if _, err := tx.CreateNode("P", nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("CreateNode after commit = %v", err)
	}
	if _, err := tx.GetNode(0); !errors.Is(err, ErrTxDone) {
		t.Errorf("GetNode after commit = %v", err)
	}
	if err := tx.ScanNodes(func(NodeSnap) bool { return true }); !errors.Is(err, ErrTxDone) {
		t.Errorf("ScanNodes after commit = %v", err)
	}
}
