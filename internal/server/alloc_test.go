//go:build !race

package server

import (
	"testing"

	"poseidon/internal/index"
	"poseidon/internal/ldbc"
)

// TestWarmLDBCPrepareAllocs: a warm "ldbc:" prepare parses the name,
// finds the plan New built and looks its statement up — no plan is rebuilt
// and no signature formatted (≈ 30 allocations when each RUN did both).
func TestWarmLDBCPrepareAllocs(t *testing.T) {
	db, srv, _ := startServer(t, Config{})
	ds := ldbc.Generate(ldbc.Config{Persons: 50})
	if err := ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.prepare("ldbc:sr2-post"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.prepare("ldbc:sr2-post"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("a warm ldbc prepare allocates %.0f times, budget 3", allocs)
	}
}
