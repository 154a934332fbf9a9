package index

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// Arena growth: a tree's private DRAM pool starts small and doubles under
// the write lock whenever an allocation in it fails.

func arenaSize(tree *Tree) int {
	tree.mu.RLock()
	defer tree.mu.RUnlock()
	return tree.innerDev.Size()
}

// fillUntil inserts (k, k) for ascending k from next until the arena has
// doubled the given number of times more, publishing each inserted key.
func fillUntil(t *testing.T, tree *Tree, next *atomic.Int64, doublings int) {
	t.Helper()
	want := arenaSize(tree) << doublings
	for arenaSize(tree) < want {
		k := next.Load()
		if k > 1<<22 {
			t.Fatalf("arena is %d bytes after %d inserts, want %d", arenaSize(tree), k, want)
		}
		if err := tree.Insert(iv(k), uint64(k)); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
		next.Store(k + 1)
	}
}

// checkKeys verifies the tree holds exactly (k, k) for k in [0, n),
// looking up every step-th key.
func checkKeys(t *testing.T, tree *Tree, n, step int64) {
	t.Helper()
	if got := tree.Len(); got != uint64(n) {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for k := int64(0); k < n; k += step {
		if id, ok := tree.LookupFirst(iv(k)); !ok || id != uint64(k) {
			t.Fatalf("LookupFirst(%d) = %d,%v", k, id, ok)
		}
	}
}

// A fixed arena was a capacity ceiling: a Volatile tree failed with
// pmemobj.ErrOutOfMemory once its nodes filled 64 MiB.
func TestVolatileTreeGrowsPast64MiB(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("fills 64 MiB of index nodes, a minute under the race detector")
	}
	tree, err := Create(Volatile, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	const batch = 1 << 14
	ents := make([]Entry, batch)
	var n int64
	for tree.innerDev.Size() <= 64<<20 {
		for i := range ents {
			ents[i] = Entry{Key: iv(n), ID: uint64(n)}
			n++
		}
		if err := tree.InsertMany(ents); err != nil {
			t.Fatalf("InsertMany after %d entries (arena %d MiB): %v", n-batch, tree.innerDev.Size()>>20, err)
		}
	}
	checkKeys(t, tree, n, 997)
	var scanned int64
	tree.Scan(func(k storage.Value, id uint64) bool {
		if k.Int() != scanned || id != uint64(scanned) {
			t.Fatalf("Scan entry %d = (%d, %d)", scanned, k.Int(), id)
		}
		scanned++
		return true
	})
	if scanned != n {
		t.Fatalf("Scan visited %d entries, want %d", scanned, n)
	}
}

// Growth swaps the registered pool in place: the registry count does not
// move, the grown-out-of arena becomes garbage, and a closed tree's
// growth registers nothing.
func TestArenaGrowthKeepsRegistry(t *testing.T) {
	for _, kind := range []Kind{Volatile, Hybrid} {
		t.Run(kind.String(), func(t *testing.T) {
			pool, _ := newPMemPool(t, 64<<20)
			base := pmemobj.Registered()
			tree, err := Create(kind, pool, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if size, logCap := tree.innerDev.Size(), tree.innerPool.LogCap(); size != minArenaBytes || logCap > 1<<10 {
				t.Errorf("empty tree's arena is %d bytes with a %d-byte undo log, want %d with at most 1 KiB",
					size, logCap, minArenaBytes)
			}
			freed := make(chan struct{})
			runtime.SetFinalizer(tree.innerDev, func(*pmem.Device) { close(freed) })

			var next atomic.Int64
			fillUntil(t, tree, &next, 3)
			if got := pmemobj.Registered() - base; got != 1 {
				t.Errorf("%d pools registered for the tree after 3 doublings, want 1", got)
			}
			if p, _, err := pmemobj.Resolve(pmemobj.PPtr{Pool: tree.innerPool.UUID()}); err != nil || p != tree.innerPool {
				t.Errorf("arena UUID resolves to %p (err %v), want the grown pool %p", p, err, tree.innerPool)
			}
			deadline := time.Now().Add(5 * time.Second)
		wait:
			for {
				runtime.GC()
				select {
				case <-freed:
					break wait
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("the first arena is still reachable after the tree outgrew it")
				}
			}

			tree.Close()
			if got := pmemobj.Registered(); got != base {
				t.Errorf("%d pools registered after Close, want %d", got, base)
			}
			fillUntil(t, tree, &next, 2)
			if got := pmemobj.Registered(); got != base {
				t.Errorf("%d pools registered after a closed tree grew, want %d", got, base)
			}
			checkKeys(t, tree, next.Load(), 1)
			if probs := tree.CheckIntegrity(); len(probs) != 0 {
				t.Fatalf("CheckIntegrity: %v", probs)
			}
		})
	}
}

// Readers run while the one writer doubles the arena several times; each
// sees a consistent tree holding every key published before it started.
func TestArenaGrowsUnderConcurrentReaders(t *testing.T) {
	for _, kind := range []Kind{Volatile, Hybrid} {
		t.Run(kind.String(), func(t *testing.T) {
			pool, _ := newPMemPool(t, 64<<20)
			tree, err := Create(kind, pool, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			var next atomic.Int64 // keys [0, next) are in the tree
			var done atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for !done.Load() {
						n := next.Load()
						if n == 0 {
							continue
						}
						k := rng.Int63n(n)
						var got int64
						visit := func(key storage.Value, id uint64) bool {
							if key.Int() != k+got || id != uint64(k+got) {
								t.Errorf("reader %d: entry %d after %d = (%d, %d)", r, got, k, key.Int(), id)
								return false
							}
							got++
							return got < 64
						}
						switch r {
						case 0:
							if ids := tree.Lookup(iv(k)); len(ids) != 1 || ids[0] != uint64(k) {
								t.Errorf("Lookup(%d) = %v", k, ids)
							}
						case 1:
							tree.Range(iv(k), iv(k+63), visit)
						case 2:
							k = 0
							tree.Scan(visit)
						}
						if want := min(64, n-k); r > 0 && got < want {
							t.Errorf("reader %d from %d: %d entries, want at least %d", r, k, got, want)
						}
						if t.Failed() {
							return
						}
					}
				}(r)
			}
			fillUntil(t, tree, &next, 3)
			done.Store(true)
			wg.Wait()
			if probs := tree.CheckIntegrity(); len(probs) != 0 {
				t.Fatalf("CheckIntegrity: %v", probs)
			}
		})
	}
}

// Open rebuilds a Hybrid tree's inner levels into an arena sized from the
// leaf count: recovery never grows it, and it is not fixed-size.
func TestReopenSizesArenaFromLeaves(t *testing.T) {
	dev := pmem.New(pmem.Config{Name: "idx", Size: 64 << 20, Persistent: true})
	pool, err := pmemobj.Create(dev, pmemobj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Create(Hybrid, pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var next atomic.Int64
	fillUntil(t, tree, &next, 2)
	tree.Close()
	pool.Close()
	dev.Crash()

	pool2, err := pmemobj.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	tree2, err := Open(Hybrid, pool2, tree.Offset(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	// The arena holds twice the inner nodes a leaf level of this many
	// non-empty leaves needs; one Open grew would be twice that again.
	leaves, nodes := 0, 0
	tree2.WalkLeaves(func(_ uint64, entries []Entry, _ uint64) bool {
		leaves += min(len(entries), 1)
		return true
	})
	for n := leaves; n > 1; nodes += n {
		n = (n + innerCap) / (innerCap + 1)
	}
	want := minArenaBytes
	for want < 2*nodes*nodeBlock {
		want *= 2
	}
	if size := arenaSize(tree2); size != want || want == minArenaBytes {
		t.Errorf("rebuilt arena is %d bytes for %d leaves, want %d (above the first %d)", size, leaves, want, minArenaBytes)
	}
	checkKeys(t, tree2, next.Load(), 1)
	fillUntil(t, tree2, &next, 1)
	checkKeys(t, tree2, next.Load(), 7)
	if probs := tree2.CheckIntegrity(); len(probs) != 0 {
		t.Fatalf("CheckIntegrity: %v", probs)
	}
}
