package core

import (
	"errors"
	"sync"
	"testing"

	"poseidon/internal/index"
	"poseidon/internal/storage"
)

// reopenAfterCrash crashes the device and reopens the engine on it.
func reopenAfterCrash(t *testing.T, e *Engine) *Engine {
	t.Helper()
	dev := e.Device()
	e.Close()
	dev.Crash()
	e2, err := Reopen(dev, Config{Mode: PMem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	return e2
}

func TestCommittedDataSurvivesCrash(t *testing.T) {
	e := newTestEngine(t, PMem)
	tx := e.Begin()
	a := mustCreateNode(t, tx, "Person", map[string]any{"name": "alice", "age": int64(30)})
	b := mustCreateNode(t, tx, "Person", map[string]any{"name": "bob"})
	r, _ := tx.CreateRel(a, b, "knows", map[string]any{"since": int64(2019)})
	mustCommit(t, tx)

	e2 := reopenAfterCrash(t, e)
	p := nodeProps(t, e2, a)
	if p["name"] != "alice" || p["age"] != int64(30) {
		t.Errorf("alice props after crash = %v", p)
	}
	tx2 := e2.Begin()
	defer tx2.Abort()
	snap, err := tx2.GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	var rels []uint64
	tx2.OutRels(snap, func(rs RelSnap) bool { rels = append(rels, rs.ID); return true })
	if len(rels) != 1 || rels[0] != r {
		t.Errorf("rels after crash = %v, want [%d]", rels, r)
	}
	// The clock resumed past committed timestamps: a new tx can update.
	tx3 := e2.Begin()
	if err := tx3.SetNodeProps(a, map[string]any{"age": int64(31)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx3)
}

func TestUncommittedInsertRolledBackOnCrash(t *testing.T) {
	e := newTestEngine(t, PMem)
	setup := e.Begin()
	mustCreateNode(t, setup, "P", nil)
	mustCommit(t, setup)

	// Leave a transaction in flight: an insert (bts=0, locked) that never
	// commits.
	tx := e.Begin()
	mustCreateNode(t, tx, "P", map[string]any{"ghost": true})
	// No commit: crash.

	e2 := reopenAfterCrash(t, e)
	if got := e2.NodeCount(); got != 1 {
		t.Errorf("node count after crash = %d, want 1 (uncommitted insert reclaimed)", got)
	}
}

func TestStaleLockClearedOnCrash(t *testing.T) {
	e := newTestEngine(t, PMem)
	setup := e.Begin()
	id := mustCreateNode(t, setup, "P", map[string]any{"v": int64(1)})
	mustCommit(t, setup)

	// Lock the record (update in flight) and crash before commit.
	tx := e.Begin()
	if err := tx.SetNodeProps(id, map[string]any{"v": int64(99)}); err != nil {
		t.Fatal(err)
	}

	e2 := reopenAfterCrash(t, e)
	// The old committed value must be intact and the record writable.
	p := nodeProps(t, e2, id)
	if p["v"] != int64(1) {
		t.Errorf("v = %v after crash, want 1", p["v"])
	}
	tx2 := e2.Begin()
	if err := tx2.SetNodeProps(id, map[string]any{"v": int64(2)}); err != nil {
		t.Fatalf("record still locked after recovery: %v", err)
	}
	mustCommit(t, tx2)
}

func TestHybridIndexSurvivesCrash(t *testing.T) {
	e := newTestEngine(t, PMem)
	setup := e.Begin()
	var want []uint64
	for i := 0; i < 200; i++ {
		id := mustCreateNode(t, setup, "Person", map[string]any{"num": int64(i)})
		want = append(want, id)
	}
	mustCommit(t, setup)
	if err := e.CreateIndex("Person", "num", index.Hybrid); err != nil {
		t.Fatal(err)
	}

	e2 := reopenAfterCrash(t, e)
	tree, ok := e2.IndexFor("Person", "num")
	if !ok {
		t.Fatal("hybrid index not reopened")
	}
	tx := e2.Begin()
	defer tx.Abort()
	for i := 0; i < 200; i += 17 {
		snaps, err := tx.IndexedLookup(tree, storage.IntValue(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) != 1 || snaps[0].ID != want[i] {
			t.Fatalf("lookup(%d) after crash = %v, want id %d", i, snaps, want[i])
		}
	}
}

func TestBulkLoaderBasics(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		bl := e.NewBulkLoader()
		var persons []uint64
		for i := 0; i < 1000; i++ {
			id, err := bl.AddNode("Person", map[string]any{"num": int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			persons = append(persons, id)
		}
		for i := 0; i < 999; i++ {
			if _, err := bl.AddRel(persons[i], persons[i+1], "knows", nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := bl.Finish(); err != nil {
			t.Fatal(err)
		}
		if e.NodeCount() != 1000 || e.RelCount() != 999 {
			t.Fatalf("counts = %d nodes, %d rels", e.NodeCount(), e.RelCount())
		}
		// Loaded data is visible to normal transactions and traversable.
		tx := e.Begin()
		defer tx.Abort()
		snap, err := tx.GetNode(persons[500])
		if err != nil {
			t.Fatal(err)
		}
		outs := 0
		tx.OutRels(snap, func(RelSnap) bool { outs++; return true })
		ins := 0
		tx.InRels(snap, func(RelSnap) bool { ins++; return true })
		if outs != 1 || ins != 1 {
			t.Errorf("middle node: out=%d in=%d, want 1/1", outs, ins)
		}
	})
}

func TestBulkLoadSurvivesCrash(t *testing.T) {
	e := newTestEngine(t, PMem)
	bl := e.NewBulkLoader()
	a, _ := bl.AddNode("P", map[string]any{"k": "v"})
	b, _ := bl.AddNode("P", nil)
	bl.AddRel(a, b, "r", nil)
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	e2 := reopenAfterCrash(t, e)
	if e2.NodeCount() != 2 || e2.RelCount() != 1 {
		t.Errorf("counts after crash = %d/%d, want 2/1", e2.NodeCount(), e2.RelCount())
	}
	if p := nodeProps(t, e2, a); p["k"] != "v" {
		t.Errorf("props after crash = %v", p)
	}
}

func TestBulkLoaderRejectsMissingEndpoint(t *testing.T) {
	e := newTestEngine(t, DRAM)
	bl := e.NewBulkLoader()
	a, _ := bl.AddNode("P", nil)
	if _, err := bl.AddRel(a, 999, "r", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("AddRel to missing node = %v, want ErrNotFound", err)
	}
	// Subsequent calls keep failing with the sticky error.
	if _, err := bl.AddNode("P", nil); err == nil {
		t.Error("loader accepted work after failure")
	}
	if err := bl.Finish(); err == nil {
		t.Error("Finish did not surface the error")
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	e := newTestEngine(t, DRAM)
	setup := e.Begin()
	var ids []uint64
	for i := 0; i < 16; i++ {
		ids = append(ids, mustCreateNode(t, setup, "P", map[string]any{"v": int64(0)}))
	}
	mustCommit(t, setup)

	const rounds = 30
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := e.Begin()
				if err := tx.SetNodeProps(id, map[string]any{"v": int64(r + 1)}); err != nil {
					tx.Abort()
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(ids[w])
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		// Disjoint writers should never conflict.
		t.Fatal(err)
	}
	for _, id := range ids {
		if p := nodeProps(t, e, id); p["v"] != int64(rounds) {
			t.Fatalf("node %d v = %v, want %d", id, p["v"], rounds)
		}
	}
}

func TestConcurrentContendedWriters(t *testing.T) {
	// Contended writers: some transactions must abort, committed state
	// must remain consistent (monotone counter of successful commits).
	e := newTestEngine(t, DRAM)
	setup := e.Begin()
	id := mustCreateNode(t, setup, "P", map[string]any{"v": int64(0)})
	mustCommit(t, setup)

	var mu sync.Mutex
	commits := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				tx := e.Begin()
				snap, err := tx.GetNode(id)
				if err != nil {
					tx.Abort()
					continue
				}
				code, _ := e.dict.Lookup("v")
				cur, _ := snap.Prop(uint32(code))
				if err := tx.SetNodeProps(id, map[string]any{"v": cur.Int() + 1}); err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() == nil {
					mu.Lock()
					commits++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if commits == 0 {
		t.Fatal("no transaction ever committed under contention")
	}
	p := nodeProps(t, e, id)
	if p["v"] != int64(commits) {
		t.Errorf("v = %v, want %d (one increment per successful commit)", p["v"], commits)
	}
}

// TestRecoveryFencesOncePerTable: Reopen after a crash that caught 100
// inserts and 100 updates in flight, every line of them on media (as a
// crash may leave them), clears the 100 stale locks behind one drain and
// drops the 100 uncommitted slots in one pool transaction — one
// publication fence, one flush drain, one commit point: 4 drains in all.
// It paid 500 when each stale lock was persisted alone (100) and each
// dropped slot released in a transaction of its own (4 each: two
// snapshot fences, the flush drain, the commit point).
func TestRecoveryFencesOncePerTable(t *testing.T) {
	e := newTestEngine(t, PMem)
	setup := e.Begin()
	var committed []uint64
	for i := 0; i < 100; i++ {
		committed = append(committed, mustCreateNode(t, setup, "Person", map[string]any{"n": int64(i)}))
	}
	mustCommit(t, setup)

	inflight := e.Begin()
	for i, id := range committed {
		mustCreateNode(t, inflight, "Person", map[string]any{"n": int64(100 + i)})
		if err := inflight.SetNodeProps(id, map[string]any{"n": int64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	dev := e.Device()
	dev.Flush(0, uint64(dev.Size()))
	dev.Drain()
	e.Close()
	dev.Crash()

	pre := dev.Stats.Snapshot()
	e2, err := Reopen(dev, Config{Mode: PMem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	drains := dev.Stats.Snapshot().Sub(pre).Drains
	if got := e2.NodeCount(); got != 100 {
		t.Fatalf("%d nodes after recovery, want the 100 committed", got)
	}
	const want = 4
	if drains != want {
		t.Errorf("Reopen after 100 in-flight inserts and updates pays %d drains, want %d", drains, want)
	}
}
