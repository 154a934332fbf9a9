package ldbc

import (
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/fsck"
	"poseidon/internal/index"
	"poseidon/internal/storage"
)

// TestLoadCoreTxMatchesBulk: the per-transaction ingest baseline
// (indexes first, maintained by every commit) agrees with LoadCore (bulk
// load, then index backfill) on counts and index contents. LoadCore's
// image satisfies every persistent invariant and survives a clean close
// and Reopen with its indexes intact.
func TestLoadCoreTxMatchesBulk(t *testing.T) {
	ds := Generate(Config{Persons: 40, Seed: 9})

	bulk, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bulk.Close)
	if err := ds.LoadCore(bulk, true, index.Hybrid); err != nil {
		t.Fatal(err)
	}

	var perTx *core.Engine
	for _, txOps := range []int{1, 64} {
		if perTx, err = core.Open(core.Config{Mode: core.DRAM, PoolSize: 256 << 20}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(perTx.Close)
		if err := ds.LoadCoreTx(perTx, true, index.Volatile, txOps); err != nil {
			t.Fatal(err)
		}
		compareEngines(t, bulk, perTx, ds)
	}

	if rep := fsck.Check(bulk); !rep.OK() {
		t.Fatalf("fsck after LoadCore:\n%s", rep)
	}
	dev := bulk.Device()
	bulk.Close()
	re, err := core.Reopen(dev, core.Config{Mode: core.PMem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(re.Close)
	compareEngines(t, perTx, re, ds)
}

func compareEngines(t *testing.T, a, b *core.Engine, ds *Dataset) {
	t.Helper()
	if an, bn := a.NodeCount(), b.NodeCount(); an != bn {
		t.Fatalf("node counts differ: %d vs %d", an, bn)
	}
	if ar, br := a.RelCount(), b.RelCount(); ar != br {
		t.Fatalf("rel counts differ: %d vs %d", ar, br)
	}
	// Every indexed business id resolves to the same number of nodes
	// with identical labels on both engines.
	for _, spec := range IndexSpecs() {
		ra, oka := a.IndexFor(spec[0], spec[1])
		rb, okb := b.IndexFor(spec[0], spec[1])
		if !oka || !okb {
			t.Fatalf("index %s.%s missing: a=%v b=%v", spec[0], spec[1], oka, okb)
		}
		for i := int64(0); i < 40; i++ {
			v := storage.IntValue(i)
			la, lb := ra.Lookup(v), rb.Lookup(v)
			if len(la) != len(lb) {
				t.Fatalf("index %s.%s id=%d: %d hits vs %d", spec[0], spec[1], i, len(la), len(lb))
			}
		}
	}
}
