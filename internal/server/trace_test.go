package server

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"poseidon"
	"poseidon/client"
	"poseidon/internal/trace"
	"poseidon/internal/wire"
)

// startTracedServer boots a server whose DB retains every trace
// (sample rate 1), so assertions do not race tail sampling.
func startTracedServer(t *testing.T, cfg Config) (*poseidon.DB, *Server, string) {
	t.Helper()
	db, err := poseidon.Open(poseidon.Config{
		Mode:     poseidon.DRAM,
		PoolSize: 128 << 20,
		Telemetry: poseidon.TelemetryConfig{
			Enabled: true,
			Trace:   poseidon.TraceConfig{Enabled: true, SampleRate: 1},
		},
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

// TestTracePropagationEndToEnd drives a traced client against a traced
// server and asserts the propagated trace reaches every layer: the
// server retains a trace under the client's ID whose spans run
// wire → admission → session → execution → commit → pmem.
func TestTracePropagationEndToEnd(t *testing.T) {
	db, _, addr := startTracedServer(t, Config{})

	ct := trace.New(trace.Config{SampleRate: 1})
	c, err := client.Dial(addr, client.Options{Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.ProtocolVersion(); v != wire.LatestVersion {
		t.Fatalf("negotiated version = %d, want %d", v, wire.LatestVersion)
	}
	if p, _ := c.ServerInfo()["protocol"].(int64); p != int64(wire.LatestVersion) {
		t.Fatalf("HELLO protocol meta = %v", c.ServerInfo()["protocol"])
	}

	// An auto-commit update exercises the deepest span chain: wire →
	// admission → session → stmt → interpreter → core commit → pmem.
	if _, err := c.ExecText(`CREATE (:Person {name: $n})`, map[string]any{"n": "alice"}); err != nil {
		t.Fatal(err)
	}
	idHex := c.LastTraceID()
	if idHex == "" {
		t.Fatal("client recorded no trace ID")
	}
	id, err := trace.ParseID(idHex)
	if err != nil {
		t.Fatal(err)
	}
	tr := db.Tracer().Trace(id)
	if tr == nil {
		t.Fatalf("server did not retain trace %s; retained: %d", idHex, len(db.Traces()))
	}
	if tr.RemoteParent == 0 {
		t.Error("propagated trace carries no remote parent span")
	}
	kinds := make(map[trace.Kind]bool)
	for _, k := range tr.Kinds() {
		kinds[k] = true
	}
	for _, want := range []trace.Kind{trace.KindWire, trace.KindAdmission, trace.KindSession, trace.KindCommit, trace.KindPMem} {
		if !kinds[want] {
			t.Errorf("trace %s missing a %q span; kinds = %v", idHex, want, tr.Kinds())
		}
	}
	// Per-shard lock wait, when contention occurred, hangs off the
	// commit span as lock_wait_shard<N>_ns; with a single client there
	// is none, but the commit span itself must carry the shard count.
	var commitSeen bool
	for _, sp := range tr.Spans {
		if sp.Name == "core.commit" {
			commitSeen = true
			var shards bool
			for _, a := range sp.Attrs {
				if a.Key == "shards" {
					shards = true
				}
			}
			if !shards {
				t.Errorf("core.commit span missing shards attr: %+v", sp.Attrs)
			}
		}
	}
	if !commitSeen {
		t.Error("no core.commit span in propagated trace")
	}

	// A one-exchange read seals its trace once its last frame is written.
	if _, err := c.QueryText(`MATCH (p:Person) RETURN p.name`, nil); err != nil {
		t.Fatal(err)
	}
	qid, err := trace.ParseID(c.LastTraceID())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for db.Tracer().Trace(qid) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("server never retained streaming-read trace %s", c.LastTraceID())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// sys:profile reflects the most recent request on this connection.
	meta, err := c.Sys("profile")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := meta["profile"].(string)
	if !strings.Contains(prof, "session.query") {
		t.Errorf("sys:profile missing session stage:\n%s", prof)
	}

	// sys:traces lists retained summaries; sys:trace:<id> exports one.
	meta, err = c.Sys("traces")
	if err != nil {
		t.Fatal(err)
	}
	var sums []trace.Summary
	if err := json.Unmarshal([]byte(meta["traces"].(string)), &sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("sys:traces returned no summaries")
	}
	meta, err = c.Sys("trace:" + idHex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(meta["trace"].(string), "traceEvents") {
		t.Errorf("sys:trace export is not Chrome trace-event JSON")
	}

	// Unknown sys statements are syntax errors, not hangups.
	if _, err := c.Sys("nonsense"); !client.IsCode(err, wire.CodeSyntax) {
		t.Errorf("sys:nonsense error = %v, want SYNTAX", err)
	}
	if c.Broken() {
		t.Fatal("connection broken after sys statements")
	}
}

// TestTraceExplicitCommit asserts an explicit BEGIN/.../COMMIT roots a
// server.commit trace carrying the core commit and persist spans.
func TestTraceExplicitCommit(t *testing.T) {
	db, _, addr := startTracedServer(t, Config{})
	ct := trace.New(trace.Config{SampleRate: 1})
	c, err := client.Dial(addr, client.Options{Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecText(`CREATE (:Person {name: $n})`, map[string]any{"n": "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	var found *trace.Trace
	for _, tr := range db.Traces() {
		if tr.Root().Name == "server.commit" {
			found = tr
		}
	}
	if found == nil {
		t.Fatal("no server.commit trace retained")
	}
	names := make(map[string]bool)
	for _, sp := range found.Spans {
		names[sp.Name] = true
	}
	if !names["core.commit"] || !names["pmem.persist"] {
		t.Errorf("server.commit trace spans = %v, want core.commit and pmem.persist", names)
	}
}

// TestUntracedServerIgnoresTraceMetadata: a traced client against an
// untraced server still works — the metadata is decoded and dropped.
func TestUntracedServerDropsTraceMetadata(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	ct := trace.New(trace.Config{SampleRate: 1})
	c, err := client.Dial(addr, client.Options{Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecText(`CREATE (:Person {name: $n})`, map[string]any{"n": "carol"}); err != nil {
		t.Fatal(err)
	}
	// The client still traced locally.
	if c.LastTraceID() == "" {
		t.Fatal("client recorded no local trace ID")
	}
	// sys:profile reports the no-trace message instead of erroring.
	meta, err := c.Sys("profile")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := meta["profile"].(string); !ok {
		t.Fatalf("sys:profile meta = %v", meta)
	}
}
