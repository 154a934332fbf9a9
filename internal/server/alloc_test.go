//go:build !race

package server

import (
	"io"
	"net"
	"testing"

	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/wire"
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

// TestUntracedRunSetsNoAttrs: with tracing off a RUN has no span, so
// handleRun must not box the span attributes it would set (the mode and
// the text, two allocations per RUN). A warm pull-all RUN of a point read
// that finds nothing is handled in a fixed number of allocations: the
// run, the wire frames and the session's bookkeeping. (36 when the
// attributes were boxed and each read made its own decode closure and
// end-of-statement closure.)
func TestUntracedRunSetsNoAttrs(t *testing.T) {
	db, srv, _ := startServer(t, Config{})
	if db.Tracer() != nil {
		t.Fatal("the test server traces")
	}
	seedOne(t, db)
	server, client := net.Pipe()
	defer client.Close()
	go io.Copy(io.Discard, client)
	c := newConn(srv, server)
	defer c.shutdown()
	if !c.handle(&wire.Hello{UserAgent: "alloc", Mode: wire.ModeDefault}) {
		t.Fatal("HELLO refused")
	}
	run := &wire.Run{Text: `MATCH (p:Person {name: $n}) RETURN p.name`,
		Params: map[string]any{"n": "nobody"}, PullAll: true}
	for i := 0; i < 3; i++ { // warm: the statement cache, the session
		if !c.handle(run) {
			t.Fatal("RUN closed the connection")
		}
	}
	const budget = 31
	if allocs := testing.AllocsPerRun(100, func() { c.handle(run) }); allocs > budget {
		t.Errorf("an untraced RUN allocates %.0f times, budget %d", allocs, budget)
	}
}
