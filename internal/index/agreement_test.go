package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"poseidon/internal/storage"
)

// Index-agreement battery: randomized insert/delete/bulk-insert/reopen
// schedules must keep every read path — Lookup, LookupFirst, Contains,
// Range, Scan, Len — and the physical leaf chain (WalkLeaves) in exact
// agreement with a map-based oracle, and the tree structurally sound
// (CheckIntegrity) at every point — including right after every arena
// doubling.

// treeOracle is the reference model: key -> set of ids.
type treeOracle map[int64]map[uint64]bool

func (o treeOracle) insert(k int64, id uint64) {
	if o[k] == nil {
		o[k] = make(map[uint64]bool)
	}
	o[k][id] = true
}

func (o treeOracle) delete(k int64, id uint64) bool {
	if !o[k][id] {
		return false
	}
	delete(o[k], id)
	return true
}

// pairs returns every (key, id) in (key, id) order, bounds inclusive.
func (o treeOracle) pairs(lo, hi int64) [][2]int64 {
	out := [][2]int64{}
	for k, ids := range o {
		if k < lo || k > hi {
			continue
		}
		for id := range ids {
			out = append(out, [2]int64{k, int64(id)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// verifyAgreement checks every read path against the oracle over the key
// universe [0, keySpace).
func verifyAgreement(t *testing.T, tree *Tree, o treeOracle, keySpace int64) {
	t.Helper()
	all := o.pairs(0, keySpace)
	if tree.Len() != uint64(len(all)) {
		t.Fatalf("Len = %d, oracle %d", tree.Len(), len(all))
	}
	for k := int64(0); k < keySpace; k++ {
		want := o.pairs(k, k)
		got := tree.Lookup(iv(k))
		if len(got) != len(want) {
			t.Fatalf("Lookup(%d) = %v, oracle %v", k, got, want)
		}
		for i, id := range got {
			if int64(id) != want[i][1] || !tree.Contains(iv(k), id) {
				t.Fatalf("Lookup(%d) = %v (Contains %v), oracle %v", k, got, tree.Contains(iv(k), id), want)
			}
		}
		if id, ok := tree.LookupFirst(iv(k)); ok != (len(want) > 0) || (ok && int64(id) != want[0][1]) {
			t.Fatalf("LookupFirst(%d) = %d,%v, oracle %v", k, id, ok, want)
		}
		if tree.Contains(iv(k), 1<<40) {
			t.Fatalf("Contains(%d, absent) = true", k)
		}
	}
	collect := func(run func(fn func(k storage.Value, id uint64) bool)) [][2]int64 {
		out := [][2]int64{}
		run(func(k storage.Value, id uint64) bool {
			out = append(out, [2]int64{k.Int(), int64(id)})
			return true
		})
		return out
	}
	if scan := collect(tree.Scan); fmt.Sprint(scan) != fmt.Sprint(all) {
		t.Fatalf("Scan = %v, oracle %v", scan, all)
	}
	lo, hi := keySpace/4, 3*keySpace/4
	got := collect(func(fn func(storage.Value, uint64) bool) { tree.Range(iv(lo), iv(hi), fn) })
	if want := o.pairs(lo, hi); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range(%d,%d) = %v, oracle %v", lo, hi, got, want)
	}
	leaves := collect(func(fn func(storage.Value, uint64) bool) {
		tree.WalkLeaves(func(_ uint64, entries []Entry, _ uint64) bool {
			for _, e := range entries {
				fn(e.Key, e.ID)
			}
			return true
		})
	})
	if fmt.Sprint(leaves) != fmt.Sprint(all) {
		t.Fatalf("WalkLeaves = %v, oracle %v", leaves, all)
	}
	if probs := tree.CheckIntegrity(); len(probs) != 0 {
		t.Fatalf("CheckIntegrity: %v", probs)
	}
}

// runAgreement runs steps random operations over keys [0, 40) and ids
// [0, idSpace) and returns how often the tree's arena doubled.
func runAgreement(t *testing.T, kind Kind, seed int64, steps int, idSpace int) int {
	pool, _ := newPMemPool(t, 64<<20)
	tree, err := Create(kind, pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := treeOracle{}
	rng := rand.New(rand.NewSource(seed))
	const keySpace = 40
	arena, grows := tree.innerDev, 0

	for i := 0; i < steps; i++ {
		k := rng.Int63n(keySpace)
		id := uint64(rng.Intn(idSpace))
		switch p := rng.Intn(100); {
		case p < 55:
			if err := tree.Insert(iv(k), id); err != nil {
				t.Fatal(err)
			}
			o.insert(k, id)
		case p < 85:
			want := o.delete(k, id)
			if got := tree.Delete(iv(k), id); got != want {
				t.Fatalf("step %d: Delete(%d,%d) = %v, oracle %v", i, k, id, got, want)
			}
		case p < 95:
			// Backfill's path: a batch (duplicates included) persisted
			// with one leaf sweep. Under POSEIDON_PMEM_STRICT this also
			// checks that no dirtied leaf is left across a drain.
			batch := make([]Entry, 1+rng.Intn(30))
			for j := range batch {
				bk, bid := rng.Int63n(keySpace), uint64(rng.Intn(idSpace))
				batch[j] = Entry{Key: iv(bk), ID: bid}
				o.insert(bk, bid)
			}
			if err := tree.InsertMany(batch); err != nil {
				t.Fatal(err)
			}
		case kind == Volatile:
			// A Volatile tree cannot be reopened.
		default:
			// Reopen from the persistent header; every insert and delete
			// was persisted, so the oracle stays exact.
			tree.Close()
			if tree, err = Open(kind, pool, tree.Offset(), Options{}); err != nil {
				t.Fatalf("step %d: reopen: %v", i, err)
			}
			arena = tree.innerDev
		}
		if tree.innerDev != arena {
			arena, grows = tree.innerDev, grows+1
			verifyAgreement(t, tree, o, keySpace)
		} else if (i+1)%(steps/6) == 0 {
			verifyAgreement(t, tree, o, keySpace)
		}
	}
	verifyAgreement(t, tree, o, keySpace)
	tree.Close()
	return grows
}

func TestTreeAgreementRandomized(t *testing.T) {
	for _, kind := range []Kind{Volatile, Hybrid, Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					if kind != Volatile {
						runAgreement(t, kind, seed, 900, 6)
						return
					}
					// Thousands of live entries: the arena holding every
					// node doubles at least three times from its first size.
					if grows := runAgreement(t, kind, seed, 6000, 400); grows < 3 {
						t.Fatalf("arena doubled %d times, want at least 3", grows)
					}
				})
			}
		})
	}
}
