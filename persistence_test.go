package poseidon

// Cross-process persistence: the durable device image can be saved to a
// stream (standing in for a DAX-mounted pool file), loaded into a fresh
// device and recovered — the path cmd/ldbcgen -save and the recovery
// example exercise.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"poseidon/internal/pmem"
	"poseidon/internal/query"
)

func TestDeviceImageSaveLoadReopen(t *testing.T) {
	// Run the whole engine stack under the strict flush checker: a read
	// of any line that missed its Flush before a Drain barrier panics.
	t.Setenv(pmem.StrictEnv, "1")
	db, err := Open(Config{Mode: PMem, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	alice, _, _ := seedSocial(t, db)
	if err := db.CreateIndex("Person", "name", HybridIndex); err != nil {
		t.Fatal(err)
	}

	// Save the durable image (what a pool file would hold).
	var img bytes.Buffer
	if err := db.Device().Save(&img); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// A brand-new device in a "new process": load the image and recover.
	dev := pmem.NewPMem(64 << 20)
	if err := dev.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	db2, err := Reopen(dev, Config{Mode: PMem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	if db2.NodeCount() != 3 || db2.RelCount() != 2 {
		t.Fatalf("counts after image load = %d/%d, want 3/2", db2.NodeCount(), db2.RelCount())
	}
	// The hybrid index came back with the image.
	plan := &query.Plan{Root: &query.Project{
		Input: &query.IndexScan{Label: "Person", Key: "name", Value: &query.Param{Name: "n"}},
		Cols:  []query.Expr{&query.IDOf{Col: 0}},
	}}
	rows, err := db2.QueryCtx(context.Background(), plan, query.Params{"n": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || uint64(rows[0][0].(int64)) != alice {
		t.Errorf("indexed lookup after image load = %v, want [[%d]]", rows, alice)
	}
}

func TestDeviceImageFileRoundTrip(t *testing.T) {
	t.Setenv(pmem.StrictEnv, "1")
	db, err := Open(Config{Mode: PMem, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	seedSocial(t, db)

	path := filepath.Join(t.TempDir(), "pool.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Device().Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	dev := pmem.NewPMem(64 << 20)
	if err := dev.Load(f2); err != nil {
		t.Fatal(err)
	}
	db2, err := Reopen(dev, Config{Mode: PMem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.NodeCount() != 3 {
		t.Errorf("nodes after file round trip = %d", db2.NodeCount())
	}
}
