package poseidon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/telemetry"
	"poseidon/internal/trace"
)

// openTelemetryDB opens a PMem database with metrics on and a threshold
// every statement crosses; trace adds request tracing (zero = off).
func openTelemetryDB(t *testing.T, trace TraceConfig) *DB {
	t.Helper()
	db, err := Open(Config{
		Mode:     PMem,
		PoolSize: 128 << 20,
		Telemetry: TelemetryConfig{
			Enabled:            true,
			SlowQueryThreshold: time.Nanosecond,
			Trace:              trace,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// mixedWorkload runs a representative SR/IU mix: commits, a forced
// write-write conflict, JIT + parallel + adaptive reads, and repeated
// Cypher for statement-cache hits.
func mixedWorkload(t *testing.T, db *DB) {
	t.Helper()
	tx := db.Begin()
	ids := make([]uint64, 0, 64)
	for i := 0; i < 64; i++ {
		id, err := tx.CreateNode("Person", map[string]any{"name": fmt.Sprintf("p%02d", i), "age": int64(20 + i%40)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		if _, err := tx.CreateRel(ids[i-1], ids[i], "knows", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Force a write-write conflict: two transactions update one node.
	t1, t2 := db.Begin(), db.Begin()
	if err := t1.SetNodeProps(ids[0], map[string]any{"age": int64(99)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.SetNodeProps(ids[0], map[string]any{"age": int64(98)}); err == nil {
		t.Fatal("expected a write-write conflict")
	} else if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("conflict error = %v, want ErrAborted", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	src := `MATCH (p:Person) RETURN p.name`
	for _, mode := range []ExecMode{Interpret, Parallel, JIT, Adaptive} {
		if _, err := db.CypherModeCtx(ctx, src, nil, mode); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
	// An update through a session (IU-style).
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	upd, err := db.Prepare(`MATCH (p:Person {name: $n}) SET p.age = $a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, upd, query.Params{"n": "p01", "a": int64(77)}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndToEnd is the acceptance scenario: a mixed SR/IU workload
// followed by a scrape of the Prometheus endpoint, asserting the pmem,
// MVTO-abort, JIT, statement-cache and query-latency families all carry
// plausible values.
func TestMetricsEndToEnd(t *testing.T) {
	db := openTelemetryDB(t, TraceConfig{})
	mixedWorkload(t, db)

	srv := httptest.NewServer(db.DebugMux())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every required family must be present and the load-bearing series
	// nonzero after this workload.
	nonzero := []string{
		"poseidon_pmem_reads_total",
		"poseidon_pmem_writes_total",
		"poseidon_pmem_block_writes_total",
		"poseidon_tx_begun_total",
		"poseidon_tx_commits_total",
		`poseidon_tx_aborts_total{reason="write_conflict"}`,
		"poseidon_jit_compiles_total",
		"poseidon_stmt_cache_misses_total",
		"poseidon_query_duration_seconds_count",
		"poseidon_query_rows_total",
		`poseidon_queries_total{mode="jit"}`,
		`poseidon_queries_total{mode="parallel"}`,
	}
	for _, name := range nonzero {
		v, ok := scrapeValue(body, name)
		if !ok {
			t.Errorf("metric %s missing from scrape", name)
			continue
		}
		if v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	// Present (possibly zero) families.
	for _, name := range []string{
		`poseidon_tx_aborts_total{reason="validation"}`,
		`poseidon_jit_code_cache_hits_total{tier="memory"}`,
		`poseidon_jit_morsels_total{path="interpreted"}`,
		"poseidon_query_duration_seconds_bucket",
		"poseidon_mvto_chain_walk_length_count",
		"poseidon_sessions_active",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metric %s missing from scrape", name)
		}
	}

	// The 1ns threshold makes every statement slow, and the counter says
	// so by a compare; the slow rows are pinned traces, so with tracing
	// off there are none.
	if n := db.Metrics().Values["poseidon_slow_queries_total"]; n < 5 {
		t.Errorf("poseidon_slow_queries_total = %v, want every statement (>= 5)", n)
	}
	if rows := db.SlowQueries(); len(rows) != 0 {
		t.Errorf("SlowQueries() = %d rows with tracing off, want none", len(rows))
	}
}

// TestMetricsSnapshotIsTheScrape: DB.Metrics() and /metrics read one
// registry, so they agree series for series — labelled series, histogram
// _count/_sum, the families RegisterServer and installTracer add after
// open, and a series this test registers itself, declared once.
func TestMetricsSnapshotIsTheScrape(t *testing.T) {
	db := openTelemetryDB(t, TraceConfig{Enabled: true})
	st := db.RegisterServer("test", []string{"run"})
	st.ConnsOpen.Add(2)
	st.Observe("run", time.Millisecond)
	db.tel.reg.Counter("poseidon_test_extra_total", "Registered by the test.",
		telemetry.Label{Key: "k", Value: "v"}).Add(3)
	mixedWorkload(t, db)

	rec := httptest.NewRecorder()
	db.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	m := db.Metrics()
	if len(m.Values) < 40 || len(m.Histograms) < 4 {
		t.Fatalf("snapshot has %d values and %d histograms, want the whole registry", len(m.Values), len(m.Histograms))
	}
	histKey := func(series, suffix string) string { // name_count{l="v"} -> name{l="v"}
		name, labels, labelled := strings.Cut(series, "{")
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			return ""
		}
		if labelled {
			return base + "{" + labels
		}
		return base
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series := line[:i]
		scraped, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		got, ok := m.Values[series]
		if h, isHist := m.Histograms[histKey(series, "_count")]; !ok && isHist {
			got, ok, series = float64(h.Count), true, histKey(series, "_count")
		} else if h, isHist := m.Histograms[histKey(series, "_sum")]; !ok && isHist {
			got, ok, series = h.Sum, true, histKey(series, "_sum")
		}
		// Reading poseidon_nodes/_rels loads from the device, so the
		// device counters alone move between the two reads.
		moved := strings.HasPrefix(series, "poseidon_pmem_") && got > scraped
		if !ok {
			t.Errorf("/metrics serves %s, Metrics() has no such series", series)
		} else if got != scraped && !moved {
			t.Errorf("%s: /metrics %v, Metrics() %v", series, scraped, got)
		}
		seen[series] = true
	}
	for series := range m.Values {
		if !seen[series] {
			t.Errorf("Metrics() has %s, /metrics does not serve it", series)
		}
	}
	for series := range m.Histograms {
		if !seen[series] {
			t.Errorf("Metrics() has histogram %s, /metrics does not serve it", series)
		}
	}
	for series, want := range map[string]float64{
		`poseidon_test_extra_total{k="v"}`: 3,
		"poseidon_conns_open":              2,
	} {
		if m.Values[series] != want {
			t.Errorf("%s = %v, want %v", series, m.Values[series], want)
		}
	}
	if m.Values["poseidon_traces_started_total"] == 0 || m.Histograms[`poseidon_server_message_seconds{type="run"}`].Count != 1 {
		t.Errorf("tracer/server families missing from snapshot: traces_started=%v", m.Values["poseidon_traces_started_total"])
	}
}

// TestSlowQueriesAreTraces: the slow-query log is a view over the trace
// ring. Under a 1ns threshold every request is a row: it resolves to a
// retained trace, carries what the old log's row carried (query, mode,
// rows, a compile/execute split for the JIT modes), failures included,
// newest first and never more than the ring holds.
func TestSlowQueriesAreTraces(t *testing.T) {
	const ring = 8
	db := openTelemetryDB(t, TraceConfig{Enabled: true, RingSize: ring})
	seedSocial(t, db)
	ctx := context.Background()
	src := `MATCH (p:Person) RETURN p.name`
	run := func(mode ExecMode) {
		t.Helper()
		if _, err := db.CypherModeCtx(ctx, src, nil, mode); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
	for i := 0; i < ring; i++ { // overflow the ring before the rows under test
		run(Interpret)
	}
	// Adaptive before JIT: with the plan not yet in the code cache the
	// adaptive run compiles in the background and records it.
	modes := []ExecMode{Interpret, Parallel, Adaptive, JIT}
	for _, mode := range modes {
		run(mode)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.CypherModeCtx(cancelled, src, nil, Interpret); err == nil {
		t.Fatal("statement under a cancelled context succeeded")
	}

	rows := db.SlowQueries()
	if len(rows) != ring {
		t.Fatalf("%d slow rows, want the ring's %d", len(rows), ring)
	}
	for i, p := range rows {
		id, err := trace.ParseID(p.TraceID)
		if err != nil || db.Tracer().Trace(id) == nil {
			t.Errorf("row %d: trace %q does not resolve (%v)", i, p.TraceID, err)
		}
		if p.Total <= 0 {
			t.Errorf("row %d: total %v", i, p.Total)
		}
	}
	if rows[0].Err == "" {
		t.Errorf("newest row is not the failed statement: %+v", rows[0])
	}
	for i, mode := range modes {
		p := rows[len(modes)-i] // newest first, after the failure
		st := p.Stage("stmt.run")
		if st.Attr("query") != src || st.Attr("mode") != mode.String() || st.Attr("rows") != int64(3) {
			t.Errorf("%v row: stmt.run = %+v", mode, st)
		}
		if _, ok := st.Attr("prepare_ns").(int64); !ok {
			t.Errorf("%v row: no prepare_ns on stmt.run: %+v", mode, st)
		}
		if reads, _ := st.Attr("pmem_reads").(int64); reads <= 0 {
			t.Errorf("%v row: pmem_reads = %v", mode, st.Attr("pmem_reads"))
		}
		if mode != JIT && mode != Adaptive {
			continue
		}
		exec := p.Stage("jit.exec")
		if mode == Adaptive {
			exec = p.Stage("jit.adaptive")
		}
		compile := p.Stage("jit.compile")
		if compile == nil || exec == nil || exec.Total <= 0 {
			t.Errorf("%v row: no compile/execute split: %+v", mode, p.Stages)
		} else if _, ok := compile.Attr("compile_ns").(int64); !ok {
			t.Errorf("%v row: jit.compile carries no compile_ns: %+v", mode, compile)
		}
	}
	if n := db.Metrics().Values["poseidon_slow_queries_total"]; n != float64(ring+len(modes)+1) {
		t.Errorf("poseidon_slow_queries_total = %v, want %d", n, ring+len(modes)+1)
	}
}

// TestNegativeSlowThresholdPinsNothing: a negative SlowQueryThreshold
// means nothing is slow — no slow count, no slow rows, and no trace
// pinned for slowness at some other threshold (the tracer used to read
// any value <= 0 as its own 25ms default). Errors still pin.
func TestNegativeSlowThresholdPinsNothing(t *testing.T) {
	db, err := Open(Config{Mode: DRAM, PoolSize: 64 << 20, Telemetry: TelemetryConfig{
		Enabled:            true,
		SlowQueryThreshold: -1,
		Trace:              TraceConfig{Enabled: true, SampleRate: 1e-9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedPeople(t, db, 4*rowsBatchSize)
	stmt, err := db.PreparePlan(scanAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	// A request 30ms long: the producer parks on the unread cursor, so
	// the session's span stays open until Close.
	rows, err := sess.Query(context.Background(), stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if p := sess.LastProfile(); p == nil || p.Total < 30*time.Millisecond {
		t.Fatalf("request not 30ms long: %+v", p)
	}
	if got := db.Traces(); len(got) != 0 {
		t.Errorf("%d traces retained with nothing slow and a ~0 sample rate; pinned=%v", len(got), got[0].Pinned)
	}
	if db.SlowQueryThreshold() != 0 || db.SlowQueries() != nil {
		t.Errorf("threshold %v, %d slow rows; want 0 and none", db.SlowQueryThreshold(), len(db.SlowQueries()))
	}
	if n := db.Metrics().Values["poseidon_slow_queries_total"]; n != 0 {
		t.Errorf("poseidon_slow_queries_total = %v, want 0", n)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.QueryAll(cancelled, stmt, nil); err == nil {
		t.Fatal("statement under a cancelled context succeeded")
	}
	if got := db.Traces(); len(got) != 1 || got[0].Err == "" {
		t.Errorf("errored trace not pinned: %d retained", len(got))
	}
}

// scrapeValue extracts the value of a series from a text exposition.
func scrapeValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") { // longer name with same prefix
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
			return v, true
		}
	}
	return 0, false
}

// TestTelemetryParallelQueryHammer drives telemetry from many concurrent
// query workers — meaningful under -race — and checks the counters add
// up.
func TestTelemetryParallelQueryHammer(t *testing.T) {
	db := openTelemetryDB(t, TraceConfig{})
	seedSocial(t, db)
	stmt, err := db.Prepare(`MATCH (p:Person) RETURN p.name`)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession(SessionConfig{Mode: ExecMode(w % 4)})
			defer sess.Close()
			for i := 0; i < perWorker; i++ {
				if _, err := sess.QueryAll(context.Background(), stmt, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := db.Metrics()
	var count float64
	for mode := Interpret; mode <= Adaptive; mode++ {
		count += m.Values[`poseidon_queries_total{mode="`+mode.String()+`"}`]
	}
	if count != workers*perWorker {
		t.Errorf("query count = %v, want %d", count, workers*perWorker)
	}
	if n := m.Histograms["poseidon_query_duration_seconds"].Count; n != workers*perWorker {
		t.Errorf("latency observations = %d, want %d", n, workers*perWorker)
	}
	// 3 visible persons per query.
	if got := m.Values["poseidon_query_rows_total"]; got != workers*perWorker*3 {
		t.Errorf("rows = %v, want %d", got, workers*perWorker*3)
	}
	if got := m.Values["poseidon_sessions_active"]; got != 0 {
		t.Errorf("sessions gauge = %v after all closed, want 0", got)
	}
}

// TestDisabledTelemetryZeroCost asserts the disabled path: Metrics() is
// empty (the always-on stats stay one call on their owner), the endpoint
// answers 503, and the per-query instrumentation adds zero allocations.
func TestDisabledTelemetryZeroCost(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)

	if m := db.Metrics(); len(m.Values)+len(m.Histograms) != 0 {
		t.Fatalf("Metrics() on a disabled DB = %+v, want empty", m)
	}
	if db.Device().Stats.Snapshot().Writes == 0 || db.Engine().NodeCount() == 0 {
		t.Error("always-on stats empty on disabled DB")
	}
	if db.SlowQueries() != nil {
		t.Error("SlowQueries() non-nil on disabled DB")
	}

	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("disabled /metrics status = %d, want 503", resp.StatusCode)
	}

	// The instrumentation funnel must add zero allocations when disabled:
	// stmt.run (the instrumented wrapper) and stmt.runInner (the bare
	// dispatch) must have identical allocation profiles, down to zero
	// difference. Query execution itself allocates, so compare, don't
	// demand absolute zero. A plan-built statement has no source text, so
	// its telemetry name is the plan signature — which must not be
	// touched, let alone formatted, on the disabled path either.
	fromText, err := db.Prepare(`MATCH (p:Person {name: $n}) RETURN p.age`)
	if err != nil {
		t.Fatal(err)
	}
	fromPlan, err := db.PreparePlan(friendsPlan())
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Abort()
	emit := func(query.Row) bool { return true }
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		stmt   *Stmt
		params query.Params
	}{
		{"cypher", fromText, query.Params{"n": "alice"}},
		{"plan", fromPlan, query.Params{"who": "alice"}},
	} {
		inner := testing.AllocsPerRun(100, func() {
			if _, err := c.stmt.runInner(ctx, tx, c.params, Interpret, 1, emit); err != nil {
				t.Fatal(err)
			}
		})
		wrapped := testing.AllocsPerRun(100, func() {
			if err := c.stmt.run(ctx, tx, c.params, Interpret, 1, emit); err != nil {
				t.Fatal(err)
			}
		})
		if wrapped > inner {
			t.Errorf("%s statement: disabled stmt.run allocates %v/op vs %v/op bare — instrumentation leaks into the disabled path", c.name, wrapped, inner)
		}
	}
}
