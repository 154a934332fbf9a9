package core

import (
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/index"
	"poseidon/internal/storage"
)

func newTestEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	e, err := Open(Config{Mode: mode, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func mustCreateNode(t *testing.T, tx *Tx, label string, props map[string]any) uint64 {
	t.Helper()
	id, err := tx.CreateNode(label, props)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func bothModes(t *testing.T, f func(t *testing.T, e *Engine)) {
	for _, mode := range []Mode{PMem, DRAM} {
		t.Run(mode.String(), func(t *testing.T) {
			f(t, newTestEngine(t, mode))
		})
	}
}

func nodeProps(t *testing.T, e *Engine, id uint64) map[string]any {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	snap, err := tx.GetNode(id)
	if err != nil {
		t.Fatalf("GetNode(%d): %v", id, err)
	}
	m, err := e.DecodeProps(snap.Props())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCreateAndReadNode(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		id := mustCreateNode(t, tx, "Person", map[string]any{
			"name": "alice", "age": int64(30), "score": 1.5, "active": true,
		})
		// Own write visible before commit.
		snap, err := tx.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := e.dict.Decode(uint64(snap.Rec.Label)); got != "Person" {
			t.Errorf("label = %q", got)
		}
		mustCommit(t, tx)

		props := nodeProps(t, e, id)
		want := map[string]any{"name": "alice", "age": int64(30), "score": 1.5, "active": true}
		if len(props) != len(want) {
			t.Fatalf("props = %v", props)
		}
		for k, v := range want {
			if props[k] != v {
				t.Errorf("prop %s = %v (%T), want %v", k, props[k], props[k], v)
			}
		}
	})
}

func TestUncommittedInvisibleToOthers(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx1 := e.Begin()
		id := mustCreateNode(t, tx1, "Person", nil)

		tx2 := e.Begin()
		_, err := tx2.GetNode(id)
		// The record exists but is write-locked by tx1: per §5.1 the
		// reader aborts.
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("read of locked insert = %v, want ErrAborted", err)
		}
		mustCommit(t, tx1)

		// A transaction that began before tx1 committed cannot see it...
		tx3 := e.Begin()
		defer tx3.Abort()
		if _, err := tx3.GetNode(id); err != nil {
			t.Fatalf("read after commit: %v", err)
		}
	})
}

func TestSnapshotIsolationOnUpdate(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		id := mustCreateNode(t, setup, "Person", map[string]any{"age": int64(1)})
		mustCommit(t, setup)

		reader := e.Begin() // snapshot before the update
		writer := e.Begin()
		if err := writer.SetNodeProps(id, map[string]any{"age": int64(2)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, writer)

		// The old reader must still see age=1 from the version chain.
		snap, err := reader.GetNode(id)
		if err != nil {
			t.Fatalf("old reader: %v", err)
		}
		ageCode, _ := e.dict.Lookup("age")
		v, ok := snap.Prop(uint32(ageCode))
		if !ok || v.Int() != 1 {
			t.Errorf("old reader sees age=%v, want 1 (snapshot isolation)", v.Int())
		}
		reader.Abort()

		// A new reader sees age=2.
		p := nodeProps(t, e, id)
		if p["age"] != int64(2) {
			t.Errorf("new reader sees age=%v, want 2", p["age"])
		}
	})
}

// writeKind drives one record kind through the MVTO write checks: the
// same protocol guards node and relationship records.
type writeKind struct {
	name   string
	create func(t *testing.T, tx *Tx) uint64
	set    func(tx *Tx, id uint64, props map[string]any) error
	get    func(tx *Tx, id uint64) (map[string]any, error)
	del    func(tx *Tx, id uint64) error
}

var writeKinds = []writeKind{
	{
		name:   "node",
		create: func(t *testing.T, tx *Tx) uint64 { return mustCreateNode(t, tx, "Person", nil) },
		set:    (*Tx).SetNodeProps,
		get: func(tx *Tx, id uint64) (map[string]any, error) {
			snap, err := tx.GetNode(id)
			if err != nil {
				return nil, err
			}
			return tx.e.DecodeProps(snap.Props())
		},
		del: (*Tx).DeleteNode,
	},
	{
		name: "relationship",
		create: func(t *testing.T, tx *Tx) uint64 {
			a := mustCreateNode(t, tx, "Person", nil)
			b := mustCreateNode(t, tx, "Person", nil)
			id, err := tx.CreateRel(a, b, "knows", nil)
			if err != nil {
				t.Fatal(err)
			}
			return id
		},
		set: (*Tx).SetRelProps,
		get: func(tx *Tx, id uint64) (map[string]any, error) {
			snap, err := tx.GetRel(id)
			if err != nil {
				return nil, err
			}
			return tx.e.DecodeProps(snap.Props())
		},
		del: (*Tx).DeleteRel,
	},
}

// TestWriteWriteConflictAborts: a write to a record another writer holds
// locked, that a newer transaction deleted, or that carries a newer
// version (bts > txn) aborts as a write conflict, for either kind.
func TestWriteWriteConflictAborts(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		for _, k := range writeKinds {
			for _, tc := range []struct {
				name string
				// newer acts on the record first and returns the value of x
				// it leaves behind once the older write has failed.
				newer func(t *testing.T, newer *Tx, id uint64) any
			}{
				{"locked", func(t *testing.T, newer *Tx, id uint64) any {
					if err := k.set(newer, id, map[string]any{"x": int64(1)}); err != nil {
						t.Fatal(err)
					}
					return int64(1)
				}},
				{"deleted by a newer transaction", func(t *testing.T, newer *Tx, id uint64) any {
					if err := k.del(newer, id); err != nil {
						t.Fatal(err)
					}
					mustCommit(t, newer)
					return nil
				}},
				{"newer version", func(t *testing.T, newer *Tx, id uint64) any {
					if err := k.set(newer, id, map[string]any{"x": int64(1)}); err != nil {
						t.Fatal(err)
					}
					mustCommit(t, newer)
					return int64(1)
				}},
			} {
				t.Run(k.name+"/"+tc.name, func(t *testing.T) {
					setup := e.Begin()
					id := k.create(t, setup)
					mustCommit(t, setup)

					older := e.Begin()
					newer := e.Begin()
					want := tc.newer(t, newer, id)
					err := k.set(older, id, map[string]any{"x": int64(2)})
					if r, ok := ReasonOf(err); !errors.Is(err, ErrAborted) || !ok || r != AbortWriteConflict {
						t.Fatalf("conflicting write = %v, want a write-conflict abort", err)
					}
					if err := newer.Commit(); err != nil && !errors.Is(err, ErrTxDone) {
						t.Fatal(err)
					}
					rd := e.Begin()
					defer rd.Abort()
					p, err := k.get(rd, id)
					if want == nil {
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("read after delete = %v, %v, want ErrNotFound", p, err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if p["x"] != want {
						t.Errorf("x = %v, want %v", p["x"], want)
					}
				})
			}
		}
	})
}

// TestWriteAfterNewerReadAborts: the MVTO write rule — a record read by
// a newer transaction (rts > txn) refuses an older writer, for either
// kind.
func TestWriteAfterNewerReadAborts(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		for _, k := range writeKinds {
			t.Run(k.name, func(t *testing.T) {
				setup := e.Begin()
				id := k.create(t, setup)
				mustCommit(t, setup)

				older := e.Begin() // smaller timestamp
				newer := e.Begin()
				if _, err := k.get(newer, id); err != nil { // bumps rts to newer.id
					t.Fatal(err)
				}
				err := k.set(older, id, map[string]any{"x": int64(1)})
				if r, ok := ReasonOf(err); !errors.Is(err, ErrAborted) || !ok || r != AbortValidation {
					t.Fatalf("write under newer rts = %v, want a validation abort (MVTO rule)", err)
				}
				newer.Abort()
			})
		}
	})
}

func TestAbortRollsBackEverything(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		a := mustCreateNode(t, setup, "Person", map[string]any{"v": int64(1)})
		mustCommit(t, setup)
		nodesBefore := e.NodeCount()

		tx := e.Begin()
		b := mustCreateNode(t, tx, "Person", nil)
		if _, err := tx.CreateRel(a, b, "knows", nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.SetNodeProps(a, map[string]any{"v": int64(99)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}

		if e.NodeCount() != nodesBefore {
			t.Errorf("node count = %d, want %d (insert rolled back)", e.NodeCount(), nodesBefore)
		}
		if e.RelCount() != 0 {
			t.Errorf("rel count = %d, want 0", e.RelCount())
		}
		p := nodeProps(t, e, a)
		if p["v"] != int64(1) {
			t.Errorf("v = %v, want 1 after abort", p["v"])
		}
		// The record must be unlocked: a new writer succeeds.
		tx2 := e.Begin()
		if err := tx2.SetNodeProps(a, map[string]any{"v": int64(2)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx2)
	})
}

func TestRelationshipTraversal(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		alice := mustCreateNode(t, tx, "Person", map[string]any{"name": "alice"})
		bob := mustCreateNode(t, tx, "Person", map[string]any{"name": "bob"})
		carol := mustCreateNode(t, tx, "Person", map[string]any{"name": "carol"})
		r1, _ := tx.CreateRel(alice, bob, "knows", map[string]any{"since": int64(2020)})
		r2, _ := tx.CreateRel(alice, carol, "knows", nil)
		r3, _ := tx.CreateRel(bob, alice, "knows", nil)
		mustCommit(t, tx)

		tx2 := e.Begin()
		defer tx2.Abort()
		snap, _ := tx2.GetNode(alice)
		var out []uint64
		if err := tx2.OutRels(snap, func(r RelSnap) bool { out = append(out, r.ID); return true }); err != nil {
			t.Fatal(err)
		}
		// Prepend order: newest first.
		if len(out) != 2 || out[0] != r2 || out[1] != r1 {
			t.Errorf("out rels = %v, want [%d %d]", out, r2, r1)
		}
		var in []uint64
		if err := tx2.InRels(snap, func(r RelSnap) bool { in = append(in, r.ID); return true }); err != nil {
			t.Fatal(err)
		}
		if len(in) != 1 || in[0] != r3 {
			t.Errorf("in rels = %v, want [%d]", in, r3)
		}
		// Relationship endpoints and property.
		r, err := tx2.GetRel(r1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rec.Src != alice || r.Rec.Dst != bob {
			t.Errorf("rel endpoints = (%d,%d)", r.Rec.Src, r.Rec.Dst)
		}
		sinceCode, _ := e.dict.Lookup("since")
		if v, ok := r.Prop(uint32(sinceCode)); !ok || v.Int() != 2020 {
			t.Errorf("since = %v,%v", v, ok)
		}
	})
}

func TestSelfLoopRelationship(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		n := mustCreateNode(t, tx, "Person", nil)
		if _, err := tx.CreateRel(n, n, "follows", nil); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)

		tx2 := e.Begin()
		defer tx2.Abort()
		snap, _ := tx2.GetNode(n)
		outs, ins := 0, 0
		tx2.OutRels(snap, func(RelSnap) bool { outs++; return true })
		tx2.InRels(snap, func(RelSnap) bool { ins++; return true })
		if outs != 1 || ins != 1 {
			t.Errorf("self loop: out=%d in=%d, want 1/1", outs, ins)
		}
	})
}

func TestDeleteRelAndGC(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		a := mustCreateNode(t, tx, "P", nil)
		b := mustCreateNode(t, tx, "P", nil)
		r1, _ := tx.CreateRel(a, b, "knows", nil)
		r2, _ := tx.CreateRel(a, b, "likes", nil)
		mustCommit(t, tx)

		del := e.Begin()
		if err := del.DeleteRel(r1); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, del) // quiescent at finish: GC reclaims r1

		if e.RelCount() != 1 {
			t.Errorf("rel count after GC = %d, want 1", e.RelCount())
		}
		tx2 := e.Begin()
		defer tx2.Abort()
		if _, err := tx2.GetRel(r1); err != ErrNotFound {
			t.Errorf("deleted rel read = %v, want ErrNotFound", err)
		}
		snap, _ := tx2.GetNode(a)
		var out []uint64
		tx2.OutRels(snap, func(r RelSnap) bool { out = append(out, r.ID); return true })
		if len(out) != 1 || out[0] != r2 {
			t.Errorf("out rels after delete = %v, want [%d]", out, r2)
		}
	})
}

func TestDeleteNodeRequiresNoRels(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		a := mustCreateNode(t, tx, "P", nil)
		b := mustCreateNode(t, tx, "P", nil)
		tx.CreateRel(a, b, "knows", nil)
		mustCommit(t, tx)

		tx2 := e.Begin()
		if err := tx2.DeleteNode(a); !errors.Is(err, ErrHasRels) {
			t.Fatalf("DeleteNode with rels = %v, want ErrHasRels", err)
		}
		tx2.Abort()

		tx3 := e.Begin()
		if err := tx3.DetachDeleteNode(a); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx3)

		if got := e.NodeCount(); got != 1 {
			t.Errorf("node count = %d, want 1", got)
		}
		if got := e.RelCount(); got != 0 {
			t.Errorf("rel count = %d, want 0", got)
		}
		// b's in-list must no longer reference the reclaimed rel.
		tx4 := e.Begin()
		defer tx4.Abort()
		snap, err := tx4.GetNode(b)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		tx4.InRels(snap, func(RelSnap) bool { n++; return true })
		if n != 0 {
			t.Errorf("b still has %d in-rels", n)
		}
	})
}

func TestDeletedNodeVisibleToOldReader(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		id := mustCreateNode(t, setup, "P", map[string]any{"name": "ghost"})
		mustCommit(t, setup)

		oldReader := e.Begin() // keeps the system non-quiescent too
		deleter := e.Begin()
		if err := deleter.DeleteNode(id); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, deleter)

		// Old reader still sees the node (ets > its timestamp in PMem).
		snap, err := oldReader.GetNode(id)
		if err != nil {
			t.Fatalf("old reader after delete: %v", err)
		}
		nameCode, _ := e.dict.Lookup("name")
		if v, ok := snap.Prop(uint32(nameCode)); !ok {
			t.Error("old reader lost properties of deleted node")
		} else if s, _ := e.dict.Decode(v.Code()); s != "ghost" {
			t.Errorf("name = %q", s)
		}
		oldReader.Abort() // now quiescent: GC reclaims

		tx := e.Begin()
		defer tx.Abort()
		if _, err := tx.GetNode(id); err != ErrNotFound {
			t.Errorf("new reader = %v, want ErrNotFound", err)
		}
		if e.NodeCount() != 0 {
			t.Errorf("node count = %d, want 0 after GC", e.NodeCount())
		}
	})
}

func TestPropertyUpdateAndRemove(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		id := mustCreateNode(t, tx, "P", map[string]any{"a": int64(1), "b": int64(2)})
		mustCommit(t, tx)

		tx2 := e.Begin()
		if err := tx2.SetNodeProps(id, map[string]any{"b": int64(20), "c": int64(3), "a": nil}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx2)

		p := nodeProps(t, e, id)
		if _, ok := p["a"]; ok {
			t.Error("removed key a still present")
		}
		if p["b"] != int64(20) || p["c"] != int64(3) {
			t.Errorf("props = %v", p)
		}
	})
}

func TestManyPropsSpillAcrossBatches(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		props := map[string]any{}
		for i := 0; i < 20; i++ { // 20 props: 7 property records
			props[fmt.Sprintf("key%02d", i)] = int64(i)
		}
		tx := e.Begin()
		id := mustCreateNode(t, tx, "P", props)
		mustCommit(t, tx)
		got := nodeProps(t, e, id)
		if len(got) != 20 {
			t.Fatalf("got %d props, want 20", len(got))
		}
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key%02d", i)
			if got[k] != int64(i) {
				t.Errorf("%s = %v", k, got[k])
			}
		}
	})
}

func TestScanNodesVisibility(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		ids := make([]uint64, 10)
		for i := 0; i < 10; i++ {
			ids[i] = mustCreateNode(t, setup, "P", map[string]any{"i": int64(i)})
		}
		mustCommit(t, setup)

		oldReader := e.Begin()
		// Delete one and add one from a later transaction.
		mod := e.Begin()
		if err := mod.DeleteNode(ids[0]); err != nil {
			t.Fatal(err)
		}
		mustCreateNode(t, mod, "P", map[string]any{"i": int64(10)})
		mustCommit(t, mod)

		count := 0
		if err := oldReader.ScanNodes(func(NodeSnap) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != 10 {
			t.Errorf("old reader scanned %d nodes, want 10", count)
		}
		oldReader.Abort()

		newReader := e.Begin()
		defer newReader.Abort()
		count = 0
		if err := newReader.ScanNodes(func(NodeSnap) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != 10 { // 10 - 1 deleted + 1 added
			t.Errorf("new reader scanned %d nodes, want 10", count)
		}
	})
}

func TestReadOnlyTxCommit(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		tx := e.Begin()
		if !tx.ReadOnly() {
			t.Error("fresh tx not read-only")
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
			t.Errorf("double commit = %v, want ErrTxDone", err)
		}
		if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
			t.Errorf("abort after commit = %v, want ErrTxDone", err)
		}
	})
}

func TestIndexMaintenance(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		id1 := mustCreateNode(t, setup, "Person", map[string]any{"name": "alice"})
		mustCreateNode(t, setup, "Person", map[string]any{"name": "bob"})
		mustCreateNode(t, setup, "Post", map[string]any{"name": "alice"}) // other label
		mustCommit(t, setup)

		kind := index.Hybrid
		if e.Mode() == DRAM {
			kind = index.Volatile
		}
		if err := e.CreateIndex("Person", "name", kind); err != nil {
			t.Fatal(err)
		}
		tree, ok := e.IndexFor("Person", "name")
		if !ok {
			t.Fatal("index not registered")
		}

		lookup := func(name string) []NodeSnap {
			t.Helper()
			code, _ := e.dict.Lookup(name)
			tx := e.Begin()
			defer tx.Abort()
			snaps, err := tx.IndexedLookup(tree, storage.StringValue(code))
			if err != nil {
				t.Fatal(err)
			}
			return snaps
		}

		if snaps := lookup("alice"); len(snaps) != 1 || snaps[0].ID != id1 {
			t.Fatalf("backfilled lookup(alice) = %v", snaps)
		}

		// New inserts are indexed.
		tx := e.Begin()
		id4 := mustCreateNode(t, tx, "Person", map[string]any{"name": "carol"})
		mustCommit(t, tx)
		if snaps := lookup("carol"); len(snaps) != 1 || snaps[0].ID != id4 {
			t.Fatalf("lookup(carol) = %v", snaps)
		}

		// Updates move the index entry.
		tx = e.Begin()
		if err := tx.SetNodeProps(id1, map[string]any{"name": "alicia"}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		if snaps := lookup("alice"); len(snaps) != 0 {
			t.Fatalf("lookup(alice) after rename = %v", snaps)
		}
		if snaps := lookup("alicia"); len(snaps) != 1 {
			t.Fatalf("lookup(alicia) = %v", snaps)
		}

		// Deletes remove the entry.
		tx = e.Begin()
		if err := tx.DeleteNode(id4); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		if snaps := lookup("carol"); len(snaps) != 0 {
			t.Fatalf("lookup(carol) after delete = %v", snaps)
		}
	})
}

func TestDuplicateIndexRejected(t *testing.T) {
	e := newTestEngine(t, PMem)
	if err := e.CreateIndex("A", "k", index.Hybrid); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("A", "k", index.Hybrid); err == nil {
		t.Error("duplicate index creation succeeded")
	}
}
