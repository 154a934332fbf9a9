//go:build !race

package server

import (
	"io"
	"net"
	"testing"

	"poseidon"
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

// TestAdaptiveServerPointReadAllocs: a server whose default mode is
// Adaptive answers a warm pull-all RUN of an indexed LDBC short read the
// way an interpreting server does. A point read has no morsel loop for
// the adaptive tier switch to act in, so it takes the interpreter's
// pooled instances (41 allocations against 27 when Adaptive sent it
// through the JIT's per-run context, executor and rows).
func TestAdaptiveServerPointReadAllocs(t *testing.T) {
	ds := ldbc.Generate(ldbc.Config{Persons: 50})
	var allocs [2]float64
	for i, mode := range []poseidon.ExecMode{poseidon.Adaptive, poseidon.Interpret} {
		db, srv, _ := startServer(t, Config{Mode: mode})
		if err := ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
			t.Fatal(err)
		}
		server, client := net.Pipe()
		go io.Copy(io.Discard, client)
		c := newConn(srv, server)
		if !c.handle(&wire.Hello{UserAgent: "alloc", Mode: wire.ModeDefault}) {
			t.Fatal("HELLO refused")
		}
		run := &wire.Run{Text: "ldbc:sr1", Mode: wire.ModeDefault,
			Params: map[string]any{"id": ds.PersonIDs[7]}, PullAll: true}
		for k := 0; k < 3; k++ { // warm: the statement cache, the session
			if !c.handle(run) {
				t.Fatalf("%v: RUN closed the connection", mode)
			}
		}
		allocs[i] = testing.AllocsPerRun(100, func() { c.handle(run) })
		c.shutdown()
		client.Close()
	}
	if allocs[0] > allocs[1] {
		t.Errorf("a warm ldbc:sr1 RUN allocates %.0f times on an Adaptive server, %.0f on an Interpret one",
			allocs[0], allocs[1])
	}
}
