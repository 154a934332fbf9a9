package poseidon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// openTelemetryDB opens a PMem database with telemetry on and an
// aggressive slow-query threshold so traces are actually recorded.
func openTelemetryDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{
		Mode:     PMem,
		PoolSize: 128 << 20,
		Telemetry: TelemetryConfig{
			Enabled:            true,
			SlowQueryThreshold: time.Nanosecond,
			SlowQueryLogSize:   16,
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
	db := openTelemetryDB(t)
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

	// The structured snapshot must agree with the workload too.
	m := db.Metrics()
	if !m.Enabled {
		t.Fatal("Metrics().Enabled = false on an enabled DB")
	}
	if m.Tx.Commits == 0 || m.Tx.Begun == 0 {
		t.Errorf("tx metrics = %+v, want nonzero begun/commits", m.Tx)
	}
	if m.Tx.Aborts["write_conflict"] == 0 {
		t.Errorf("aborts = %v, want a write_conflict", m.Tx.Aborts)
	}
	if m.JIT.Compiles == 0 {
		t.Error("JIT compiles = 0 after JIT query")
	}
	if m.Query.Count < 5 || m.Query.Latency.Count < 5 {
		t.Errorf("query count %d / latency count %d, want >= 5", m.Query.Count, m.Query.Latency.Count)
	}
	if m.Query.Rows == 0 {
		t.Error("rows streamed = 0")
	}
	if m.PMem.Reads == 0 || m.PMem.Writes == 0 {
		t.Error("pmem stats empty")
	}
	if m.Nodes == 0 || m.Rels == 0 {
		t.Error("graph size gauges empty")
	}

	// The 1ns threshold makes every query slow: the log must hold traces
	// with a mode and a total.
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("slow-query log empty despite 1ns threshold")
	}
	if slow[0].Total <= 0 || slow[0].Mode == "" || slow[0].Query == "" {
		t.Errorf("slow trace incomplete: %+v", slow[0])
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
	db := openTelemetryDB(t)
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
	if m.Query.Count != workers*perWorker {
		t.Errorf("query count = %d, want %d", m.Query.Count, workers*perWorker)
	}
	if m.Query.Latency.Count != workers*perWorker {
		t.Errorf("latency observations = %d, want %d", m.Query.Latency.Count, workers*perWorker)
	}
	// 3 visible persons per query.
	if want := uint64(workers * perWorker * 3); m.Query.Rows != want {
		t.Errorf("rows = %d, want %d", m.Query.Rows, want)
	}
	if m.SessionsActive != 0 {
		t.Errorf("sessions gauge = %d after all closed, want 0", m.SessionsActive)
	}
}

// TestDisabledTelemetryZeroCost asserts the disabled path: Metrics()
// still works (always-on stats filled), the endpoint answers 503, and
// the per-query instrumentation adds zero allocations.
func TestDisabledTelemetryZeroCost(t *testing.T) {
	db := openTestDB(t, DRAM)
	seedSocial(t, db)

	m := db.Metrics()
	if m.Enabled {
		t.Fatal("Metrics().Enabled = true on a disabled DB")
	}
	if m.PMem.Writes == 0 || m.Nodes == 0 {
		t.Errorf("always-on stats empty on disabled DB: %+v", m)
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
