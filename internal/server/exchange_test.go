package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"poseidon"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/wire"
)

// rawHello handshakes on nc offering versions, says HELLO and returns the
// negotiated version.
func rawHello(t *testing.T, nc net.Conn, versions ...uint32) uint32 {
	t.Helper()
	if err := wire.WriteClientHandshake(nc, versions...); err != nil {
		t.Fatal(err)
	}
	v, err := wire.ReadServerHandshake(nc)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(nc, &wire.Hello{UserAgent: "raw", Mode: wire.ModeDefault}); err != nil {
		t.Fatal(err)
	}
	if m := rawRead(t, nc); m.Type() != wire.MsgSuccess {
		t.Fatalf("HELLO answered with %#v", m)
	}
	return v
}

func rawRead(t *testing.T, nc net.Conn) wire.Message {
	t.Helper()
	m, err := wire.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rawExchange sends one request and reads frames up to and including the
// SUCCESS or ERROR that ends its response, returning their names and the
// last frame.
func rawExchange(t *testing.T, nc net.Conn, req wire.Message) ([]string, wire.Message) {
	t.Helper()
	if err := wire.WriteMessage(nc, req); err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		m := rawRead(t, nc)
		names = append(names, wire.MsgName(m.Type()))
		if m.Type() != wire.MsgRecord {
			return names, m
		}
	}
}

// TestPullAllIsOneExchange pins the frames a Version3 pull-all RUN gets
// back: a read's records and the SUCCESS that ends them, in auto-commit
// and inside BEGIN alike; an update's single SUCCESS.
func TestPullAllIsOneExchange(t *testing.T) {
	db, _, addr := startServer(t, Config{})
	seedOne(t, db)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if v := rawHello(t, nc, wire.Version3, wire.Version2, wire.Version1); v != wire.Version3 {
		t.Fatalf("negotiated version %d, want %d", v, wire.Version3)
	}
	read := &wire.Run{Text: `MATCH (p:Person) RETURN p.name`, Mode: wire.ModeDefault, PullAll: true}
	check := func(what string, req wire.Message, want []string, meta map[string]any) {
		t.Helper()
		names, last := rawExchange(t, nc, req)
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("%s: frames %v, want %v (last %#v)", what, names, want, last)
		}
		if s, _ := last.(*wire.Success); !reflect.DeepEqual(s.Meta, meta) {
			t.Fatalf("%s: final SUCCESS meta %v, want %v", what, s.Meta, meta)
		}
	}
	done := map[string]any{"has_more": false}
	check("auto-commit read", read, []string{"record", "success"}, done)
	check("update", &wire.Run{Text: `CREATE (:Person {name: "x"})`, Mode: wire.ModeDefault, PullAll: true},
		[]string{"success"}, map[string]any{"rows_affected": int64(1), "committed": true})
	check("begin", &wire.Begin{}, []string{"success"}, map[string]any{})
	check("read in a transaction", read, []string{"record", "record", "success"}, done)
	check("rollback", &wire.Rollback{}, []string{"success"}, map[string]any{})
	if h := db.Metrics().Histograms[`poseidon_server_message_seconds{type="pull"}`]; h.Count != 0 {
		t.Fatalf("pull-all RUNs were answered through %d PULLs", h.Count)
	}
	if n := db.Metrics().Values["poseidon_inflight_stmts"]; n != 0 {
		t.Fatalf("%v admission slots held after the exchanges", n)
	}
}

// TestVersion2PeerKeepsTheCursor: a client that offers only Version2 gets
// RUN → SUCCESS{streaming}, then PULL → RECORDs → SUCCESS{has_more:false}.
func TestVersion2PeerKeepsTheCursor(t *testing.T) {
	db, _, addr := startServer(t, Config{})
	seedOne(t, db)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if v := rawHello(t, nc, wire.Version2); v != wire.Version2 {
		t.Fatalf("negotiated version %d, want %d", v, wire.Version2)
	}
	names, last := rawExchange(t, nc, &wire.Run{Text: `MATCH (p:Person) RETURN p.name`, Mode: wire.ModeDefault})
	if s, ok := last.(*wire.Success); len(names) != 1 || !ok || s.Meta["streaming"] != true {
		t.Fatalf("RUN answered with %v, last %#v; want SUCCESS{streaming}", names, last)
	}
	names, last = rawExchange(t, nc, &wire.Pull{N: -1})
	if s, ok := last.(*wire.Success); !reflect.DeepEqual(names, []string{"record", "success"}) || !ok || s.Meta["has_more"] != false {
		t.Fatalf("PULL answered with %v, last %#v; want RECORD, SUCCESS{has_more:false}", names, last)
	}
}

// pipeListener hands the server the far ends of net.Pipe connections.
// A pipe is synchronous and unbuffered, so a client that stops reading
// stalls the server's next write at once, not a socket buffer later.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects a client end.
func (l *pipeListener) dial() net.Conn {
	cli, srv := net.Pipe()
	l.conns <- srv
	return cli
}

// startPipeServer is startServer over a pipeListener, with a result
// several times the connection's 32 KiB write buffer seeded.
func startPipeServer(t *testing.T, cfg Config) (*poseidon.DB, *pipeListener) {
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
	tx := db.Begin()
	for i := 0; i < 3000; i++ {
		if _, err := tx.CreateNode("Person", map[string]any{"name": fmt.Sprintf("%040d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return db, l
}

// settles waits until the server holds no admission slot, connection or
// transaction and the goroutine count is back at base.
func settles(t *testing.T, db *poseidon.DB, base int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		m := db.Metrics().Values
		inflight, conns := m["poseidon_inflight_stmts"], m["poseidon_conns_open"]
		txs, gs := db.Engine().ActiveTxs(), runtime.NumGoroutine()
		if inflight == 0 && conns == 0 && txs == 0 && gs <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not released: inflight=%v conns=%v txs=%d goroutines=%d (base %d)", inflight, conns, txs, gs, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectMidResult: a client that hangs up after the first record
// of a one-exchange read leaves no admission slot, connection,
// transaction or goroutine behind.
func TestDisconnectMidResult(t *testing.T) {
	db, l := startPipeServer(t, Config{})
	base := runtime.NumGoroutine()
	nc := l.dial()
	rawHello(t, nc, wire.Version3)
	if err := wire.WriteMessage(nc, &wire.Run{Text: `MATCH (p:Person) RETURN p.name`, Mode: wire.ModeDefault, PullAll: true}); err != nil {
		t.Fatal(err)
	}
	if m := rawRead(t, nc); m.Type() != wire.MsgRecord {
		t.Fatalf("first frame %#v, want a RECORD", m)
	}
	if n := db.Metrics().Values["poseidon_inflight_stmts"]; n != 1 {
		t.Fatalf("%v admission slots held mid-result, want 1", n)
	}
	nc.Close()
	settles(t, db, base, 5*time.Second)
}

// TestStalledReaderCutOffAtStmtTimeout: a client that sends a pull-all
// RUN and stops reading holds its admission slot until the statement
// deadline, where the write deadline cuts the connection off and frees
// the slot.
func TestStalledReaderCutOffAtStmtTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	db, l := startPipeServer(t, Config{StmtTimeout: timeout})
	base := runtime.NumGoroutine()
	nc := l.dial()
	defer nc.Close()
	rawHello(t, nc, wire.Version3)
	start := time.Now()
	if err := wire.WriteMessage(nc, &wire.Run{Text: `MATCH (p:Person) RETURN p.name`, Mode: wire.ModeDefault, PullAll: true}); err != nil {
		t.Fatal(err)
	}
	for db.Metrics().Values["poseidon_inflight_stmts"] != 1 {
		if time.Since(start) > timeout {
			t.Fatal("the stalled statement never held an admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	settles(t, db, base, timeout+5*time.Second)
	if took := time.Since(start); took < timeout {
		t.Fatalf("the stalled client was cut off after %v, before the %v statement deadline", took, timeout)
	}
	// What reaches the client now ends in a closed connection.
	var err error
	for err == nil {
		_, err = wire.ReadMessage(nc)
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stalled client's stream ended with %v, want the server's hang-up", err)
	}
}

// TestLDBCPlansCached: the "ldbc:" plans are the registry's, built once,
// spellings of one statement name one plan, and every statement still
// comes from the DB's prepared-statement cache, so CreateIndex makes the
// next prepare a miss.
func TestLDBCPlansCached(t *testing.T) {
	db, srv, _ := startServer(t, Config{})
	ds := ldbc.Generate(ldbc.Config{Persons: 50})
	if err := ds.LoadCore(db.Engine(), true, index.Hybrid); err != nil {
		t.Fatal(err)
	}
	if n, want := len(srv.ldbcPlans), len(ldbc.SRQueries())+len(ldbc.IUQueries()); n != want {
		t.Fatalf("%d built plans, want one per registry statement (%d)", n, want)
	}
	// Connections prepare concurrently.
	stmts := make([]*poseidon.Stmt, 3)
	var wg sync.WaitGroup
	for i, text := range []string{"ldbc:sr1", "ldbc:sr01", "ldbc:sr001"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if stmts[i], err = srv.prepare(text); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if stmts[0] != stmts[1] || stmts[0] != stmts[2] {
		t.Fatal("spellings of sr1 prepared different statements")
	}
	first, _ := srv.prepare("ldbc:sr2-post")
	misses := db.CacheStats().Misses
	if err := db.CreateIndex("Person", "firstName", poseidon.HybridIndex); err != nil {
		t.Fatal(err)
	}
	again, err := srv.prepare("ldbc:sr2-post")
	if err != nil {
		t.Fatal(err)
	}
	if db.CacheStats().Misses != misses+1 || again == first {
		t.Fatalf("prepare after CreateIndex: misses %d → %d, same statement %v", misses, db.CacheStats().Misses, again == first)
	}
}
