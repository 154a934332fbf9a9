package core_test

import (
	"bytes"
	"slices"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/fsck"
	"poseidon/internal/index"
	"poseidon/internal/pmem"
	"poseidon/internal/storage"
)

// TestCreateIndexCrashSweep crashes a Hybrid CreateIndex — the backfill's
// InsertMany sweeps, then the directory write that publishes the trees —
// before each of its flush and drain events in turn. Whatever the crash
// point, the recovered image is fsck-clean and the index is either absent
// (no tree of any index left behind) or agrees with the tables on every
// key.
func TestCreateIndexCrashSweep(t *testing.T) {
	const nodes, keys = 40, 7
	cfg := core.Config{Mode: core.PMem, PoolSize: 16 << 20, Shards: 2, Profile: &pmem.Profile{}}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bl := e.NewBulkLoader()
	want := make(map[int64][]uint64, keys)
	for i := 0; i < nodes; i++ {
		id, err := bl.AddNode("Person", map[string]any{"num": int64(i % keys)})
		if err != nil {
			t.Fatal(err)
		}
		want[int64(i%keys)] = append(want[int64(i%keys)], id)
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, ids := range want {
		slices.Sort(ids)
	}
	dev := e.Device()
	var img bytes.Buffer
	if err := dev.Save(&img); err != nil {
		t.Fatal(err)
	}
	e.Close()

	const mask = pmem.EvFlush | pmem.EvDrain
	// run restores the loaded image, reopens it and runs CreateIndex with
	// a crash armed before event k (k == 0 only counts events).
	run := func(k uint64) (events uint64) {
		if err := dev.Load(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
		e, err := core.Reopen(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dev.ArmCrash(mask, k)
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*pmem.InjectedCrash); !ok {
						panic(r)
					}
				}
			}()
			if err := e.CreateIndex("Person", "num", index.Hybrid); err != nil {
				t.Fatalf("k=%d: CreateIndex: %v", k, err)
			}
		}()
		e.Close()
		events, _ = dev.DisarmCrash()
		return events
	}

	n := run(0)
	if n == 0 {
		t.Fatal("CreateIndex issued no flush or drain events")
	}
	published := 0
	for k := uint64(1); k <= n; k++ {
		run(k)
		dev.Crash()
		re, err := core.Reopen(dev, cfg)
		if err != nil {
			t.Fatalf("k=%d/%d: reopen: %v", k, n, err)
		}
		if rep := fsck.Check(re); !rep.OK() {
			re.Close()
			t.Fatalf("k=%d/%d: fsck:\n%s", k, n, rep)
		}
		ref, ok := re.IndexFor("Person", "num")
		trees := 0
		if ok {
			trees = cfg.Shards
		}
		if got := len(re.Indexes()); got != trees {
			re.Close()
			t.Fatalf("k=%d/%d: %d index trees after recovery, want %d (published: %v)", k, n, got, trees, ok)
		}
		if ok {
			published++
			for v, ids := range want {
				got := ref.Lookup(storage.IntValue(v))
				slices.Sort(got)
				if !slices.Equal(got, ids) {
					re.Close()
					t.Fatalf("k=%d/%d: Lookup(%d) = %v, want %v", k, n, v, got, ids)
				}
			}
		}
		re.Close()
	}
	if published == 0 {
		t.Errorf("no crash point of %d left a published index", n)
	}
	t.Logf("%d crash points, %d with the index published", n, published)
}
