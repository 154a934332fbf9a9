package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/fsck"
	"poseidon/internal/index"
	"poseidon/internal/pmemobj"
)

// Engine lifecycle: what Open starts and Close gives back, which images
// Reopen refuses to trust, and who may write while a bulk load runs.

func openEngine(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// commitPeople commits n Person nodes named prefix0..prefix(n-1), one
// transaction each, and returns their ids.
func commitPeople(t *testing.T, e *core.Engine, prefix string, n int) []uint64 {
	t.Helper()
	ids := make([]uint64, n)
	for i := range ids {
		tx := e.Begin()
		id, err := tx.CreateNode("Person", map[string]any{"name": fmt.Sprintf("%s%d", prefix, i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// Every hybrid shard tree owns a private DRAM arena for its inner nodes —
// 64 KiB at creation, doubled as the tree grows — registered with
// pmemobj; Close must hand them back, or each closed engine pins them for
// the life of the process.
func TestCloseReleasesIndexPools(t *testing.T) {
	const engines, poolSize = 20, 16 << 20
	basePools, baseHeap := pmemobj.Registered(), heapInuse()
	for i := 0; i < engines; i++ {
		e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: poolSize, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		commitPeople(t, e, "p", 4)
		if err := e.CreateIndex("Person", "name", index.Hybrid); err != nil {
			t.Fatal(err)
		}
		e.Close()
		e.Close() // idempotent
	}
	if got := pmemobj.Registered(); got != basePools {
		t.Errorf("%d pools registered after closing %d engines, want the baseline %d", got, engines, basePools)
	}
	// One engine is its device plus two 64 KiB inner-node arenas (four
	// people never grow them); twenty leaked engines are ten times the
	// bound.
	const oneEngine = poolSize + 2*(64<<10)
	if grown := int64(heapInuse()) - int64(baseHeap); grown > 2*oneEngine {
		t.Errorf("heap in use grew by %d MiB over %d closed engines, want at most one engine's worth (%d MiB)",
			grown>>20, engines, oneEngine>>20)
	}
}

// The engine runs entirely on its callers' goroutines: opening it,
// committing, creating indexes and closing it start none.
func TestEngineStartsNoGoroutines(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := runtime.NumGoroutine()
			check := func(stage string) {
				t.Helper()
				// Goroutines of earlier tests may still be winding down;
				// the count may only settle at or below the baseline.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("after %s: %d goroutines, %d before Open", stage, n, before)
				}
			}
			e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 32 << 20, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			check("Open")
			commitPeople(t, e, "a", 8)
			check("commits")
			if err := e.CreateIndex("Person", "name", index.Hybrid); err != nil {
				t.Fatal(err)
			}
			commitPeople(t, e, "b", 8)
			check("CreateIndex and indexed commits")
			e.Close()
			check("Close")
		})
	}
}

// ihDelta is the tree-header word where the removed index delta layer
// linked its op region (index.ihDelta).
const ihDelta = 40

// An image written with the delta layer on may hold index ops that were
// published to a delta region and never merged into the leaf chain. Reopen
// must not serve such a tree: the family is replaced by fresh trees and
// rebuilt from the primary tables.
func TestReopenRebuildsDeltaImageIndex(t *testing.T) {
	for _, kind := range []index.Kind{index.Hybrid, index.Persistent} {
		t.Run(kind.String(), func(t *testing.T) {
			e := openEngine(t, core.Config{Mode: core.PMem, PoolSize: 64 << 20, Shards: 2})
			if err := e.CreateIndex("Person", "name", kind); err != nil {
				t.Fatal(err)
			}
			ids := commitPeople(t, e, "p", 60)
			ref, _ := e.IndexFor("Person", "name")

			// What such an image looks like: some committed entries are
			// missing from the leaves, and one shard's header links a region.
			for i := 0; i < len(ids); i += 3 {
				v, _ := e.EncodeValue(fmt.Sprintf("p%d", i))
				if !ref.Delete(v, ids[i]) {
					t.Fatalf("entry p%d missing before the crash", i)
				}
			}
			oldHdr := map[int]uint64{}
			for _, info := range e.Indexes() {
				oldHdr[info.Shard] = info.Tree.Offset()
			}
			dev := e.Device()
			dev.WriteU64(oldHdr[1]+ihDelta, 4096)
			dev.Persist(oldHdr[1]+ihDelta, 8)
			e.Close()
			dev.Crash()

			e2, err := core.Reopen(dev, core.Config{Mode: core.PMem, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep := fsck.Check(e2); !rep.OK() {
				t.Fatalf("fsck after reopening a delta-layer image:\n%s", rep)
			}
			ref, ok := e2.IndexFor("Person", "name")
			if !ok {
				t.Fatal("index missing after reopen")
			}
			for i, id := range ids {
				v, _ := e2.EncodeValue(fmt.Sprintf("p%d", i))
				if got := ref.Lookup(v); len(got) != 1 || got[0] != id {
					t.Fatalf("Lookup(p%d) = %v after reopen, want [%d]", i, got, id)
				}
			}
			newHdr := map[int]uint64{}
			for _, info := range e2.Indexes() {
				if info.Tree.Offset() == oldHdr[info.Shard] {
					t.Errorf("shard %d still serves the delta-layer image's tree", info.Shard)
				}
				newHdr[info.Shard] = info.Tree.Offset()
			}

			// The rebuilt family is recorded: the next reopen attaches to it.
			e2.Close()
			dev.Crash()
			e3, err := core.Reopen(dev, core.Config{Mode: core.PMem, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer e3.Close()
			for _, info := range e3.Indexes() {
				if info.Tree.Offset() != newHdr[info.Shard] {
					t.Errorf("shard %d: second reopen rebuilt the index again", info.Shard)
				}
			}
		})
	}
}

// A bulk loader bypasses the MVTO locks and commit lanes, so it may not
// start beside a live transaction.
func TestBulkLoaderRefusedWhileTxActive(t *testing.T) {
	e := openEngine(t, core.Config{Mode: core.DRAM, PoolSize: 32 << 20, Shards: 2})
	tx := e.Begin()
	if _, err := tx.CreateNode("Person", nil); err != nil {
		t.Fatal(err)
	}
	bl := e.NewBulkLoader()
	if _, err := bl.AddNode("Person", nil); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("AddNode beside an active transaction: err = %v, want ErrBulkLoad", err)
	}
	if err := bl.Finish(); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("Finish of a refused loader: err = %v, want ErrBulkLoad", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("the transaction the loader collided with: %v", err)
	}
	if n := e.NodeCount(); n != 1 {
		t.Errorf("NodeCount = %d, want 1 (the refused loader wrote nothing)", n)
	}

	bl = e.NewBulkLoader()
	if _, err := bl.AddNode("Person", nil); err != nil {
		t.Fatalf("loader on a quiet engine: %v", err)
	}
	if _, err := e.NewBulkLoader().AddNode("Person", nil); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("second concurrent loader: err = %v, want ErrBulkLoad", err)
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
}

// ... and no transaction may start while a loader is open.
func TestBeginRefusedWhileBulkLoading(t *testing.T) {
	e := openEngine(t, core.Config{Mode: core.DRAM, PoolSize: 32 << 20, Shards: 2})
	bl := e.NewBulkLoader()
	if _, err := bl.AddNode("Person", nil); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if _, err := tx.CreateNode("Person", nil); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("CreateNode during a bulk load: err = %v, want ErrBulkLoad", err)
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("Commit during a bulk load: err = %v, want ErrBulkLoad", err)
	}
	if n := e.ActiveTxs(); n != 0 {
		t.Errorf("ActiveTxs = %d, want 0 (a refused Begin registers nothing)", n)
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	if _, err := tx.CreateNode("Person", nil); err != nil {
		t.Fatalf("CreateNode after Finish: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.NodeCount(); n != 2 {
		t.Errorf("NodeCount = %d, want 2", n)
	}
}

// A bulk loader writes no index entries, so indexes are built after the
// load, never beside it: CreateIndex refuses while a loader is open
// (rather than wait on the pool lock the loader's open batch holds), and
// a loader refuses an engine that already has an index.
func TestCreateIndexAndBulkLoaderRefuseEachOther(t *testing.T) {
	e := openEngine(t, core.Config{Mode: core.DRAM, PoolSize: 32 << 20, Shards: 2})
	bl := e.NewBulkLoader()
	id, err := bl.AddNode("Person", map[string]any{"name": "a"})
	if err != nil {
		t.Fatal(err)
	}
	// "nick" is not in the dictionary yet: encoding it needs the pool.
	done := make(chan error, 1)
	go func() { done <- e.CreateIndex("Person", "nick", index.Volatile) }()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrBulkLoad) {
			t.Errorf("CreateIndex during a bulk load: err = %v, want ErrBulkLoad", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("CreateIndex during a bulk load blocked instead of refusing")
		bl.Finish()
		<-done
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}

	if err := e.CreateIndex("Person", "name", index.Volatile); err != nil {
		t.Fatalf("CreateIndex after Finish: %v", err)
	}
	ref, ok := e.IndexFor("Person", "name")
	if !ok {
		t.Fatal("index missing after CreateIndex")
	}
	v, _ := e.EncodeValue("a")
	if got := ref.Lookup(v); len(got) != 1 || got[0] != id {
		t.Errorf("Lookup(a) = %v, want [%d]", got, id)
	}

	bl = e.NewBulkLoader()
	if _, err := bl.AddNode("Person", map[string]any{"name": "b"}); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("AddNode on an indexed engine: err = %v, want ErrBulkLoad", err)
	}
	if err := bl.Finish(); !errors.Is(err, core.ErrBulkLoad) {
		t.Errorf("Finish of a refused loader: err = %v, want ErrBulkLoad", err)
	}
	if n := e.NodeCount(); n != 1 {
		t.Errorf("NodeCount = %d, want 1 (the refused loader wrote nothing)", n)
	}
	tx := e.Begin() // the refused loader left the engine open to transactions
	if _, err := tx.CreateNode("Person", map[string]any{"name": "b"}); err != nil {
		t.Fatalf("CreateNode after a refused loader: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLabelScansAfterCrash: a crash with inserts of two labels in flight,
// nodes and relationships, then Reopen, which reclaims the inserts and
// rebuilds the label mirrors: each label scan returns what a label-0 scan
// filtered by Rec.Label does, and the image checks clean.
func TestLabelScansAfterCrash(t *testing.T) {
	e := openEngine(t, core.Config{Mode: core.PMem, PoolSize: 64 << 20, Shards: 2})
	labels := []string{"A", "B"}
	rels := []string{"x", "y"}
	tx := e.Begin()
	var nodes []uint64
	for i := 0; i < 60; i++ {
		id, err := tx.CreateNode(labels[i%2], map[string]any{"i": int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, id)
	}
	for i := 1; i < len(nodes); i++ {
		if _, err := tx.CreateRel(nodes[i-1], nodes[i], rels[i%2], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Two writers in flight, each inserting both labels.
	for w := 0; w < 2; w++ {
		tx := e.Begin()
		for i := 0; i < 4; i++ {
			id, err := tx.CreateNode(labels[i%2], nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.CreateRel(nodes[w], id, rels[i%2], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	dev := e.Device()
	e.Close()
	dev.Crash()
	e2, err := core.Reopen(dev, core.Config{Mode: core.PMem, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	if rep := fsck.Check(e2); !rep.OK() {
		t.Fatalf("fsck after the crash:\n%s", rep)
	}

	rd := e2.Begin()
	defer rd.Abort()
	code := func(name string) uint32 {
		c, ok := e2.Dict().Lookup(name)
		if !ok {
			t.Fatalf("%q not in the dictionary", name)
		}
		return uint32(c)
	}
	type walker interface {
		Next() (bool, error)
	}
	collect := func(it walker, cur func() (uint64, uint32), keep uint32) []uint64 {
		var ids []uint64
		for {
			ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return ids
			}
			if id, l := cur(); keep == 0 || l == keep {
				ids = append(ids, id)
			}
		}
	}
	scanNodes := func(label, keep uint32) []uint64 {
		it := rd.NewNodeIter(label)
		return collect(it, func() (uint64, uint32) { return it.Node().ID, it.Node().Rec.Label }, keep)
	}
	scanRels := func(label, keep uint32) []uint64 {
		it := rd.NewRelIter(label)
		return collect(it, func() (uint64, uint32) { return it.Rel().ID, it.Rel().Rec.Label }, keep)
	}
	for i := range labels {
		n, r := code(labels[i]), code(rels[i])
		if got, want := scanNodes(n, 0), scanNodes(0, n); len(got) != 30 || !slices.Equal(got, want) {
			t.Errorf("label-%s node scan = %v, the label-0 scan's %s nodes %v", labels[i], got, labels[i], want)
		}
		if got, want := scanRels(r, 0), scanRels(0, r); len(got) == 0 || !slices.Equal(got, want) {
			t.Errorf("label-%s relationship scan = %v, the label-0 scan's %s relationships %v", rels[i], got, rels[i], want)
		}
	}
}
