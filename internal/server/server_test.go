package server

import (
	"context"
	"net"
	"testing"
	"time"

	"poseidon"
	"poseidon/client"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/wire"
)

// startServer boots a server over a fresh DRAM DB on a loopback
// listener and returns its address.
func startServer(t *testing.T, cfg Config) (*poseidon.DB, *Server, string) {
	t.Helper()
	db, err := poseidon.Open(poseidon.Config{
		Mode:      poseidon.DRAM,
		PoolSize:  128 << 20,
		Telemetry: poseidon.TelemetryConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	cfg.DB = db
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return db, srv, l.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEnd drives the full request surface over TCP: auto-commit
// writes and reads, prepared-statement reuse, and result streaming.
func TestEndToEnd(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := dial(t, addr)

	if info := c.ServerInfo(); info["server"] != "poseidond" {
		t.Fatalf("HELLO meta = %v", info)
	}

	create, err := c.Prepare(`CREATE (:Person {name: $n, age: $a})`)
	if err != nil {
		t.Fatal(err)
	}
	if !create.HasUpdates {
		t.Fatal("CREATE statement not flagged has_updates")
	}
	for _, p := range []struct {
		n string
		a int64
	}{{"alice", 30}, {"bob", 25}, {"carol", 35}} {
		if _, err := c.Exec(create, map[string]any{"n": p.n, "a": p.a}); err != nil {
			t.Fatalf("exec %s: %v", p.n, err)
		}
	}

	match, err := c.Prepare(`MATCH (p:Person) WHERE p.age >= $min RETURN p.name`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(match, map[string]any{"min": int64(30)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}

	// One-shot text path, no PREPARE.
	rows, err = c.QueryText(`MATCH (p:Person {name: $n}) RETURN p.age`, map[string]any{"n": "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != int64(25) {
		t.Fatalf("one-shot rows = %v", rows)
	}
}

// TestExplicitTransaction checks BEGIN/COMMIT visibility and ROLLBACK
// isolation across two connections.
func TestExplicitTransaction(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	a, b := dial(t, addr), dial(t, addr)

	count := `MATCH (p:Person) RETURN p.name`

	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.QueryText(`CREATE (:Person {name: "tx"})`, nil); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: a sees it; b must not — MVTO either hides the locked
	// node or aborts b's snapshot with CONFLICT, but never dirty-reads.
	if rows, err := a.QueryText(count, nil); err != nil || len(rows) != 1 {
		t.Fatalf("in-tx rows = %v, %v", rows, err)
	}
	if rows, err := b.QueryText(count, nil); len(rows) != 0 ||
		(err != nil && !client.IsCode(err, wire.CodeConflict)) {
		t.Fatalf("other-conn rows = %v, %v (dirty read?)", rows, err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if rows, err := b.QueryText(count, nil); err != nil || len(rows) != 1 {
		t.Fatalf("post-commit rows = %v, %v", rows, err)
	}

	// ROLLBACK discards.
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.QueryText(`CREATE (:Person {name: "gone"})`, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Rollback(); err != nil {
		t.Fatal(err)
	}
	if rows, err := b.QueryText(count, nil); err != nil || len(rows) != 1 {
		t.Fatalf("post-rollback rows = %v, %v", rows, err)
	}
}

// TestLDBCStatements resolves the built-in workload statement names and
// runs one SR and one IU over a small generated dataset.
func TestLDBCStatements(t *testing.T) {
	db, _, addr := startServer(t, Config{})
	ds := ldbc.Generate(ldbc.Config{Persons: 50})
	if err := ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	pg := ldbc.NewParamGen(ds, 7)

	sr, err := c.Prepare("ldbc:sr2-post")
	if err != nil {
		t.Fatal(err)
	}
	if sr.HasUpdates {
		t.Fatal("SR statement flagged has_updates")
	}
	if _, err := c.Query(sr, pg.SRParams(ldbc.QueryID{Num: 2, Variant: "post"})); err != nil {
		t.Fatal(err)
	}

	iu, err := c.Prepare("ldbc:iu2")
	if err != nil {
		t.Fatal(err)
	}
	if !iu.HasUpdates {
		t.Fatal("IU statement not flagged has_updates")
	}
	if _, err := c.Exec(iu, pg.IUParams(ldbc.QueryID{Num: 2})); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{"ldbc:sr99", "ldbc:zz1", "ldbc:iu2-post", "ldbc:sr2-x"} {
		if _, err := c.Prepare(bad); !client.IsCode(err, wire.CodeSyntax) {
			t.Errorf("Prepare(%q) = %v, want SYNTAX", bad, err)
		}
	}
}

// seedOne creates a single Person so read statements have work to do.
func seedOne(t *testing.T, db *poseidon.DB) {
	t.Helper()
	tx := db.Begin()
	if _, err := tx.CreateNode("Person", map[string]any{"name": "seed"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// holdSlot starts a streaming RUN without pulling it, so the
// connection sits on one admission slot until released().
func holdSlot(t *testing.T, c *client.Conn) {
	t.Helper()
	if err := c.Run(`MATCH (p:Person) RETURN p.name`, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueueFull saturates MaxInflight and the wait queue and
// expects the overflow RUN to be shed with QUEUE_FULL.
func TestAdmissionQueueFull(t *testing.T) {
	db, _, addr := startServer(t, Config{
		MaxInflight:  1,
		MaxQueue:     1,
		QueueTimeout: 30 * time.Millisecond,
	})
	seedOne(t, db)

	holder := dial(t, addr)
	holdSlot(t, holder)

	// The slot is held by the unfinished stream; the next RUN waits out
	// QueueTimeout and is shed.
	blocked := dial(t, addr)
	_, err := blocked.QueryText(`MATCH (p:Person) RETURN p.name`, nil)
	if !client.IsCode(err, wire.CodeQueueFull) {
		t.Fatalf("overflow RUN err = %v, want QUEUE_FULL", err)
	}

	if n := db.Metrics().Values["poseidon_admission_rejects"]; n == 0 {
		t.Fatal("poseidon_admission_rejects not counted")
	}

	// Releasing the slot un-wedges admission.
	if _, err := holder.PullAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := blocked.QueryText(`MATCH (p:Person) RETURN p.name`, nil); err != nil {
		t.Fatalf("post-release RUN: %v", err)
	}
}

// TestGracefulDrain checks the Shutdown contract: in-flight statements
// finish, new RUN/BEGIN are rejected with DRAINING, and Shutdown
// returns once the straggler completes.
func TestGracefulDrain(t *testing.T) {
	db, srv, addr := startServer(t, Config{MaxInflight: 4})
	seedOne(t, db)

	holder := dial(t, addr)
	holdSlot(t, holder)
	bystander := dial(t, addr)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is shed while the straggler keeps the drain barrier up.
	if _, err := bystander.QueryText(`MATCH (p:Person) RETURN p.name`, nil); !client.IsCode(err, wire.CodeDraining) {
		t.Fatalf("RUN during drain = %v, want DRAINING", err)
	}
	if err := bystander.Begin(); !client.IsCode(err, wire.CodeDraining) {
		t.Fatalf("BEGIN during drain = %v, want DRAINING", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before in-flight statement finished", err)
	default:
	}

	// The in-flight stream still completes...
	rows, err := holder.PullAll()
	if err != nil {
		t.Fatalf("PULL during drain: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("drained rows = %v", rows)
	}
	// ...and its completion lets Shutdown through.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after last statement finished")
	}
}

// TestDisconnectReleasesResources kills a client mid-stream and checks
// the server returns the admission slot and connection slot.
func TestDisconnectReleasesResources(t *testing.T) {
	db, _, addr := startServer(t, Config{MaxInflight: 1})
	seedOne(t, db)

	c := dial(t, addr)
	holdSlot(t, c)
	c.Close() // vanish with the stream open and the slot held

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := db.Metrics().Values
		inflight, conns := m["poseidon_inflight_stmts"], m["poseidon_conns_open"]
		if inflight == 0 && conns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot/conn not released after disconnect: inflight=%v conns=%v", inflight, conns)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The freed slot is usable by a new connection.
	c2 := dial(t, addr)
	if _, err := c2.QueryText(`MATCH (p:Person) RETURN p.name`, nil); err != nil {
		t.Fatalf("RUN after disconnect: %v", err)
	}
}

// TestProtocolViolations exercises the PROTOCOL error paths with raw
// wire messages: statements before HELLO, RUN with a stream open, and
// PULL with none.
func TestProtocolViolations(t *testing.T) {
	db, _, addr := startServer(t, Config{})
	seedOne(t, db)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteClientHandshake(nc, wire.Version1); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadServerHandshake(nc); err != nil {
		t.Fatal(err)
	}
	// RUN before HELLO is a protocol error and closes the connection.
	if err := wire.WriteMessage(nc, &wire.Run{Text: "RETURN 1", Mode: wire.ModeDefault}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := m.(*wire.Error); !ok || e.Code != wire.CodeProtocol {
		t.Fatalf("pre-HELLO RUN response = %#v", m)
	}

	// On a fresh connection: PULL with no open result.
	c := dial(t, addr)
	if _, err := c.PullAll(); !client.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("orphan PULL = %v, want PROTOCOL", err)
	}
	// RUN while a result is streaming.
	holdSlot(t, c)
	if _, err := c.QueryText(`MATCH (p:Person) RETURN p.name`, nil); !client.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("RUN-over-stream = %v, want PROTOCOL", err)
	}
	// RESET recovers the connection.
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryText(`MATCH (p:Person) RETURN p.name`, nil); err != nil {
		t.Fatalf("post-RESET RUN: %v", err)
	}
}

// TestConflictMapsToConflictCode provokes an MVTO write-write abort
// through the wire and expects the CONFLICT error code.
func TestConflictMapsToConflictCode(t *testing.T) {
	db, _, addr := startServer(t, Config{})
	tx := db.Begin()
	id, err := tx.CreateNode("Counter", map[string]any{"n": int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	a, b := dial(t, addr), dial(t, addr)
	upd := `MATCH (c:Counter) SET c.n = $v`
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.QueryText(upd, map[string]any{"v": int64(1)}); err != nil {
		t.Fatal(err)
	}
	_, errB := b.QueryText(upd, map[string]any{"v": int64(2)})
	errA := a.Commit()
	errBC := error(nil)
	if errB == nil {
		errBC = b.Commit()
	}
	conflicted := client.IsCode(errA, wire.CodeConflict) ||
		client.IsCode(errB, wire.CodeConflict) ||
		client.IsCode(errBC, wire.CodeConflict)
	if !conflicted {
		t.Fatalf("no CONFLICT surfaced: runA-commit=%v runB=%v commitB=%v (node %d)", errA, errB, errBC, id)
	}
}

// TestServerMetricsSurface checks the per-message latency histograms
// and gauges appear in DB.Metrics after traffic.
func TestServerMetricsSurface(t *testing.T) {
	db, _, addr := startServer(t, Config{})
	seedOne(t, db)
	c := dial(t, addr)
	if _, err := c.QueryText(`MATCH (p:Person) RETURN p.name`, nil); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if _, ok := m.Values["poseidon_conns_open"]; !ok {
		t.Fatal("Metrics() misses the series RegisterServer registered")
	}
	for _, typ := range []string{"hello", "run", "pull"} {
		h, ok := m.Histograms[`poseidon_server_message_seconds{type="`+typ+`"}`]
		if !ok || h.Count == 0 {
			t.Errorf("no %s latency observations: %+v", typ, h)
		}
	}
}
