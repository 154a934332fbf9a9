package ldbc

import (
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/fsck"
	"poseidon/internal/index"
	"poseidon/internal/storage"
)

// TestBulkLoadMatchesClassicLoad: the streamed bulk path (indexes
// created first, entries published per batch) must produce the same
// observable engine as the classic path (load, then index backfill).
func TestBulkLoadMatchesClassicLoad(t *testing.T) {
	ds := Generate(Config{Persons: 40, Seed: 9})

	classic, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(classic.Close)
	if err := ds.LoadCore(classic, true, index.Hybrid); err != nil {
		t.Fatal(err)
	}

	bulk, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bulk.Close)
	if err := ds.BulkLoadCore(bulk, true, index.Hybrid); err != nil {
		t.Fatal(err)
	}

	compareEngines(t, classic, bulk, ds)

	// The bulk image must satisfy every persistent invariant.
	rep := fsck.Check(bulk)
	if !rep.OK() {
		t.Fatalf("fsck after bulk load:\n%s", rep)
	}
	// And survive a clean close/reopen with indexes intact.
	dev := bulk.Device()
	bulk.Close()
	re, err := core.Reopen(dev, core.Config{Mode: core.PMem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(re.Close)
	compareEngines(t, classic, re, ds)
}

// TestLoadCoreTxMatchesBulk: the per-transaction ingest baseline agrees
// with the bulk path on counts and index contents.
func TestLoadCoreTxMatchesBulk(t *testing.T) {
	ds := Generate(Config{Persons: 25, Seed: 17})

	bulk, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bulk.Close)
	if err := ds.BulkLoadCore(bulk, true, index.Volatile); err != nil {
		t.Fatal(err)
	}

	for _, txOps := range []int{1, 64} {
		perTx, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 256 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.LoadCoreTx(perTx, true, index.Volatile, txOps); err != nil {
			t.Fatal(err)
		}
		compareEngines(t, bulk, perTx, ds)
		perTx.Close()
	}
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
