package index

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

func newPMemPool(t *testing.T, size int) (*pmemobj.Pool, *pmem.Device) {
	t.Helper()
	dev := pmem.New(pmem.Config{Name: "idx", Size: size, Persistent: true})
	pool, err := pmemobj.Create(dev, pmemobj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool, dev
}

func allKinds(t *testing.T, f func(t *testing.T, tree *Tree)) {
	for _, kind := range []Kind{Volatile, Hybrid, Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			pool, _ := newPMemPool(t, 64<<20)
			tree, err := Create(kind, pool, Options{})
			if err != nil {
				t.Fatal(err)
			}
			f(t, tree)
		})
	}
}

func iv(v int64) storage.Value { return storage.IntValue(v) }

func TestInsertLookupAllKinds(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		const n = 2000
		for i := int64(0); i < n; i++ {
			if err := tree.Insert(iv(i*3), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if tree.Len() != n {
			t.Fatalf("Len = %d, want %d", tree.Len(), n)
		}
		for i := int64(0); i < n; i++ {
			ids := tree.Lookup(iv(i * 3))
			if len(ids) != 1 || ids[0] != uint64(i) {
				t.Fatalf("Lookup(%d) = %v, want [%d]", i*3, ids, i)
			}
			if id, ok := tree.LookupFirst(iv(i * 3)); !ok || id != uint64(i) {
				t.Fatalf("LookupFirst(%d) = %d,%v", i*3, id, ok)
			}
		}
		if ids := tree.Lookup(iv(1)); ids != nil {
			t.Errorf("Lookup(missing) = %v, want nil", ids)
		}
		if _, ok := tree.LookupFirst(iv(-5)); ok {
			t.Error("LookupFirst(missing) reported found")
		}
	})
}

func TestDuplicateKeys(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		// 100 ids under one key, enough to span several leaves, plus
		// neighbours on both sides.
		for id := uint64(0); id < 100; id++ {
			tree.Insert(iv(50), id)
		}
		tree.Insert(iv(49), 1000)
		tree.Insert(iv(51), 2000)
		ids := tree.Lookup(iv(50))
		if len(ids) != 100 {
			t.Fatalf("Lookup(dup) returned %d ids, want 100", len(ids))
		}
		for i, id := range ids {
			if id != uint64(i) {
				t.Fatalf("ids[%d] = %d, want %d (id order)", i, id, i)
			}
		}
		// Idempotent insert.
		tree.Insert(iv(50), 7)
		if got := len(tree.Lookup(iv(50))); got != 100 {
			t.Errorf("after duplicate insert: %d ids, want 100", got)
		}
	})
}

func TestInsertDescendingAndRandomOrder(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		rng := rand.New(rand.NewSource(42))
		perm := rng.Perm(3000)
		for _, v := range perm {
			tree.Insert(iv(int64(v)), uint64(v))
		}
		// Full scan must be sorted.
		var prev int64 = -1
		count := 0
		tree.Scan(func(k storage.Value, id uint64) bool {
			if k.Int() <= prev {
				t.Fatalf("scan out of order: %d after %d", k.Int(), prev)
			}
			if uint64(k.Int()) != id {
				t.Fatalf("wrong id %d for key %d", id, k.Int())
			}
			prev = k.Int()
			count++
			return true
		})
		if count != 3000 {
			t.Errorf("scan visited %d, want 3000", count)
		}
	})
}

func TestRangeQueries(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		for i := int64(0); i < 1000; i++ {
			tree.Insert(iv(i*2), uint64(i)) // even keys 0..1998
		}
		var got []int64
		tree.Range(iv(100), iv(120), func(k storage.Value, _ uint64) bool {
			got = append(got, k.Int())
			return true
		})
		want := []int64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
		if len(got) != len(want) {
			t.Fatalf("range returned %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		// Odd bounds (not present as keys).
		got = got[:0]
		tree.Range(iv(99), iv(103), func(k storage.Value, _ uint64) bool {
			got = append(got, k.Int())
			return true
		})
		if len(got) != 2 || got[0] != 100 || got[1] != 102 {
			t.Errorf("range with absent bounds = %v, want [100 102]", got)
		}
		// Early stop.
		n := 0
		tree.Range(iv(0), iv(1998), func(storage.Value, uint64) bool { n++; return n < 5 })
		if n != 5 {
			t.Errorf("early-stop range visited %d, want 5", n)
		}
	})
}

func TestDelete(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		for i := int64(0); i < 500; i++ {
			tree.Insert(iv(i), uint64(i))
		}
		for i := int64(0); i < 500; i += 2 {
			if !tree.Delete(iv(i), uint64(i)) {
				t.Fatalf("Delete(%d) not found", i)
			}
		}
		if tree.Delete(iv(0), 0) {
			t.Error("second delete of same pair succeeded")
		}
		if tree.Delete(iv(1), 999) {
			t.Error("delete with wrong id succeeded")
		}
		if tree.Len() != 250 {
			t.Errorf("Len = %d, want 250", tree.Len())
		}
		for i := int64(0); i < 500; i++ {
			_, ok := tree.LookupFirst(iv(i))
			if want := i%2 == 1; ok != want {
				t.Fatalf("LookupFirst(%d) found=%v, want %v", i, ok, want)
			}
		}
	})
}

func TestContains(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		tree.Insert(iv(5), 1)
		tree.Insert(iv(5), 2)
		if !tree.Contains(iv(5), 1) || !tree.Contains(iv(5), 2) {
			t.Error("Contains missed present pairs")
		}
		if tree.Contains(iv(5), 3) || tree.Contains(iv(6), 1) {
			t.Error("Contains found absent pairs")
		}
	})
}

func TestStringAndMixedTypeKeys(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		tree.Insert(storage.StringValue(7), 1)
		tree.Insert(storage.StringValue(9), 2)
		tree.Insert(iv(7), 3) // same raw, different type: distinct keys
		if ids := tree.Lookup(storage.StringValue(7)); len(ids) != 1 || ids[0] != 1 {
			t.Errorf("string key lookup = %v", ids)
		}
		if ids := tree.Lookup(iv(7)); len(ids) != 1 || ids[0] != 3 {
			t.Errorf("int key lookup = %v", ids)
		}
	})
}

func TestNegativeIntOrdering(t *testing.T) {
	allKinds(t, func(t *testing.T, tree *Tree) {
		for _, v := range []int64{5, -3, 0, -100, 42} {
			tree.Insert(iv(v), uint64(v+1000))
		}
		var got []int64
		tree.Scan(func(k storage.Value, _ uint64) bool {
			got = append(got, k.Int())
			return true
		})
		want := []int64{-100, -3, 0, 5, 42}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan order %v, want %v", got, want)
			}
		}
	})
}

func TestHybridRecoveryMatchesOriginal(t *testing.T) {
	dev := pmem.New(pmem.Config{Name: "idx", Size: 64 << 20, Persistent: true})
	pool, _ := pmemobj.Create(dev, pmemobj.Options{})
	tree, err := Create(Hybrid, pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hdr := tree.Offset()
	const n = 5000
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(n)
	for _, k := range keys {
		tree.Insert(iv(int64(k)), uint64(k))
	}
	for i := 0; i < 100; i++ { // some deletes too
		tree.Delete(iv(int64(i)), uint64(i))
	}
	pool.Close()
	dev.Crash() // inner nodes (DRAM) are gone; leaves survive

	pool2, err := pmemobj.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	tree2, err := Open(Hybrid, pool2, hdr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != n-100 {
		t.Fatalf("recovered Len = %d, want %d", tree2.Len(), n-100)
	}
	for k := 0; k < n; k++ {
		id, ok := tree2.LookupFirst(iv(int64(k)))
		want := k >= 100
		if ok != want {
			t.Fatalf("recovered LookupFirst(%d): found=%v, want %v", k, ok, want)
		}
		if ok && id != uint64(k) {
			t.Fatalf("recovered LookupFirst(%d) = %d", k, id)
		}
	}
	// The recovered tree must accept further inserts.
	if err := tree2.Insert(iv(999999), 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree2.LookupFirst(iv(999999)); !ok {
		t.Error("insert after recovery not visible")
	}
}

func TestPersistentRecovery(t *testing.T) {
	dev := pmem.New(pmem.Config{Name: "idx", Size: 64 << 20, Persistent: true})
	pool, _ := pmemobj.Create(dev, pmemobj.Options{})
	tree, _ := Create(Persistent, pool, Options{})
	hdr := tree.Offset()
	for i := int64(0); i < 3000; i++ {
		tree.Insert(iv(i), uint64(i))
	}
	pool.Close()
	dev.Crash()

	pool2, err := pmemobj.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	tree2, err := Open(Persistent, pool2, hdr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != 3000 {
		t.Fatalf("Len = %d, want 3000", tree2.Len())
	}
	for i := int64(0); i < 3000; i += 97 {
		if id, ok := tree2.LookupFirst(iv(i)); !ok || id != uint64(i) {
			t.Fatalf("LookupFirst(%d) = %d,%v", i, id, ok)
		}
	}
}

func TestOpenWrongKindRejected(t *testing.T) {
	pool, _ := newPMemPool(t, 32<<20)
	tree, _ := Create(Hybrid, pool, Options{})
	if _, err := Open(Persistent, pool, tree.Offset(), Options{}); err == nil {
		t.Error("opening hybrid index as persistent succeeded")
	}
	if _, err := Open(Hybrid, pool, 64, Options{}); err == nil {
		t.Error("opening garbage offset succeeded")
	}
	if _, err := Open(Volatile, pool, tree.Offset(), Options{}); err == nil {
		t.Error("opening volatile index succeeded")
	}
}

func TestTreeMatchesReferenceModelProperty(t *testing.T) {
	// Property: after any random sequence of inserts and deletes, the tree
	// agrees with a reference map on every lookup and on full-scan order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool, err := newModelPool()
		if err != nil {
			return false
		}
		defer pool.Close()
		tree, err := Create(Hybrid, pool, Options{})
		if err != nil {
			return false
		}
		ref := map[int64]map[uint64]bool{}
		for op := 0; op < 800; op++ {
			k := int64(rng.Intn(60)) // small domain: many duplicates
			id := uint64(rng.Intn(10))
			if rng.Intn(3) == 0 {
				tree.Delete(iv(k), id)
				if ref[k] != nil {
					delete(ref[k], id)
				}
			} else {
				tree.Insert(iv(k), id)
				if ref[k] == nil {
					ref[k] = map[uint64]bool{}
				}
				ref[k][id] = true
			}
		}
		var refTotal uint64
		for k, ids := range ref {
			var want []uint64
			for id := range ids {
				want = append(want, id)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := tree.Lookup(iv(k))
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			refTotal += uint64(len(want))
		}
		return tree.Len() == refTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func newModelPool() (*pmemobj.Pool, error) {
	dev := pmem.New(pmem.Config{Name: "idx", Size: 32 << 20, Persistent: true})
	return pmemobj.Create(dev, pmemobj.Options{})
}

func TestHybridLookupTouchesOnePMemNode(t *testing.T) {
	pool, dev := newPMemPool(t, 64<<20)
	tree, _ := Create(Hybrid, pool, Options{})
	for i := int64(0); i < 20000; i++ {
		tree.Insert(iv(i), uint64(i))
	}
	if tree.height < 2 {
		t.Fatalf("tree too shallow (height %d) for a meaningful test", tree.height)
	}
	before := dev.Stats.Snapshot()
	tree.LookupFirst(iv(12345))
	delta := dev.Stats.Snapshot().Sub(before)
	// A hybrid lookup reads only the one PMem-resident leaf: at most a
	// leaf's worth of words (56) plus slack; a persistent tree would also
	// read every inner level.
	if delta.Reads > 80 {
		t.Errorf("hybrid lookup did %d PMem reads, want only leaf accesses", delta.Reads)
	}
}

// An image written with the removed delta layer links a delta region from
// the tree header; ops published there never reached the leaf chain, so
// Open must refuse the tree instead of serving the incomplete chain.
func TestOpenRefusesDeltaImage(t *testing.T) {
	for _, kind := range []Kind{Hybrid, Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			pool, dev := newPMemPool(t, 32<<20)
			tree, err := Create(kind, pool, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			if err := tree.Insert(iv(1), 1); err != nil {
				t.Fatal(err)
			}
			pools := pmemobj.Registered()
			dev.WriteU64(tree.Offset()+ihDelta, 4096)
			if _, err := Open(kind, pool, tree.Offset(), Options{}); !errors.Is(err, ErrDeltaImage) {
				t.Fatalf("Open of a delta-layer image: err = %v, want ErrDeltaImage", err)
			}
			if got := pmemobj.Registered(); got != pools {
				t.Errorf("refused Open left %d pool(s) registered", got-pools)
			}
			dev.WriteU64(tree.Offset()+ihDelta, 0)
			reopened, err := Open(kind, pool, tree.Offset(), Options{})
			if err != nil {
				t.Fatalf("Open with a zero delta word: %v", err)
			}
			reopened.Close()
		})
	}
}

// Close drops the private DRAM pool of Hybrid and Volatile trees from the
// pmemobj registry, never the caller's leaf pool, and is idempotent.
func TestCloseReleasesPrivatePool(t *testing.T) {
	pool, _ := newPMemPool(t, 32<<20)
	base := pmemobj.Registered()
	for kind, private := range map[Kind]int{Volatile: 1, Hybrid: 1, Persistent: 0} {
		tree, err := Create(kind, pool, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := pmemobj.Registered() - base; got != private {
			t.Errorf("%v: %d private pool(s) registered, want %d", kind, got, private)
		}
		tree.Close()
		tree.Close()
		if got := pmemobj.Registered(); got != base {
			t.Errorf("%v: %d pool(s) registered after Close, want %d", kind, got, base)
		}
		if err := tree.Insert(iv(7), 7); err != nil || !tree.Contains(iv(7), 7) {
			t.Errorf("%v: closed tree unusable (err %v)", kind, err)
		}
	}
	if _, _, err := pmemobj.Resolve(pmemobj.PPtr{Pool: pool.UUID()}); err != nil {
		t.Errorf("leaf pool was unregistered: %v", err)
	}
}
