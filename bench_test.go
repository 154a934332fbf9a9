package poseidon

// One benchmark per table/figure of the paper's evaluation (§7). Each
// benchmark drives the internal/bench harness, which prints the same rows
// the corresponding figure reports; run with -v (or see cmd/poseidon-bench
// for the full-scale standalone runner):
//
//	go test -bench=Fig -benchtime=1x .
//
// Absolute numbers differ from the paper (simulated devices), but the
// shapes must hold; EXPERIMENTS.md records paper-vs-measured per figure.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"poseidon/internal/bench"
	"poseidon/internal/query"
)

var (
	setupOnce sync.Once
	setup     *bench.Setup
	setupErr  error
)

// benchScale reads POSEIDON_BENCH_PERSONS (default 200: a few seconds of
// load, large enough for every shape to show).
func benchScale() int {
	if v := os.Getenv("POSEIDON_BENCH_PERSONS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 200
}

func getSetup(b *testing.B) *bench.Setup {
	setupOnce.Do(func() {
		setup, setupErr = bench.NewSetup(bench.Options{
			Persons: benchScale(),
			Runs:    10,
		})
		if setupErr == nil {
			setup.Ctx = context.Background()
		}
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return setup
}

func runFigure(b *testing.B, f func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Printed to stdout rather than b.Log: the testing package
			// truncates long benchmark logs in non-verbose runs, and the
			// full table is the deliverable.
			fmt.Printf("\n%s\n", tbl.Format())
		}
	}
}

// BenchmarkFig5_ShortReads regenerates Fig 5: SR queries on DISK-i,
// DRAM-s/p/i and PMem-s/p/i.
func BenchmarkFig5_ShortReads(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Fig5)
}

// BenchmarkFig6_InteractiveUpdates regenerates Fig 6: IU execute+commit
// on DISK/DRAM/PMem, hot and cold.
func BenchmarkFig6_InteractiveUpdates(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Fig6)
}

// BenchmarkFig7_JITShortReads regenerates Fig 7: SR under the JIT engine
// (AOT vs JIT plus compile time).
func BenchmarkFig7_JITShortReads(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Fig7)
}

// BenchmarkFig8_IndexLookup regenerates Fig 8: B+-tree lookup latency per
// variant and recovery vs rebuild times (§7.4).
func BenchmarkFig8_IndexLookup(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Fig8)
}

// BenchmarkFig9_JITUpdates regenerates Fig 9: IU under the JIT engine
// (AOT vs hot cached code vs cold compilation).
func BenchmarkFig9_JITUpdates(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Fig9)
}

// BenchmarkFig10_Adaptive regenerates Fig 10: adaptive execution vs
// multi-threaded AOT on DRAM and PMem.
func BenchmarkFig10_Adaptive(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Fig10)
}

// BenchmarkAblations regenerates the design-decision ablation table of
// DESIGN.md (DG1-DG6 choices vs their alternatives).
func BenchmarkAblations(b *testing.B) {
	s := getSetup(b)
	runFigure(b, s.Ablations)
}

// --- micro-benchmarks for the primary transactional operations ---

// BenchmarkTxCommitSmallUpdate measures a single-property update
// transaction end to end on the PMem engine (execute + MVTO commit with
// the pmemobj undo log).
func BenchmarkTxCommitSmallUpdate(b *testing.B) {
	db, err := Open(Config{Mode: PMem, PoolSize: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tx := db.Begin()
	id, err := tx.CreateNode("Person", map[string]any{"v": int64(0)})
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.SetNodeProps(id, map[string]any{"v": int64(i)}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streamed vs materialized result delivery ---

var (
	streamOnce sync.Once
	streamDB   *DB
	streamErr  error
)

// streamBenchDB lazily builds a 100k-node DRAM graph shared by the
// streamed/materialized pair, so both measure delivery, not setup.
func streamBenchDB(b *testing.B) *DB {
	streamOnce.Do(func() {
		streamDB, streamErr = Open(Config{Mode: DRAM, PoolSize: 512 << 20})
		if streamErr != nil {
			return
		}
		const batch = 10000
		for i := 0; i < 100000; i += batch {
			tx := streamDB.Begin()
			for j := i; j < i+batch; j++ {
				if _, streamErr = tx.CreateNode("Person", map[string]any{"v": int64(j)}); streamErr != nil {
					return
				}
			}
			if streamErr = tx.Commit(); streamErr != nil {
				return
			}
		}
	})
	if streamErr != nil {
		b.Fatal(streamErr)
	}
	return streamDB
}

func streamBenchPlan() *query.Plan {
	return &query.Plan{Root: &query.Project{
		Input: &query.NodeScan{Label: "Person"},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "v"}},
	}}
}

// BenchmarkScan100kMaterialized collects a 100k-row scan into [][]any
// through the classic facade path: every row is decoded and held.
func BenchmarkScan100kMaterialized(b *testing.B) {
	db := streamBenchDB(b)
	plan := streamBenchPlan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.QueryCtx(context.Background(), plan, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 100000 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkScan100kStreamed pulls the same scan through a Rows cursor,
// reading raw values without decoding or materializing: the streaming
// path's allocation advantage is the point of the comparison.
func BenchmarkScan100kStreamed(b *testing.B) {
	db := streamBenchDB(b)
	stmt, err := db.PreparePlan(streamBenchPlan())
	if err != nil {
		b.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := sess.Query(context.Background(), stmt, nil)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			_ = rows.Row()
			n++
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
		if n != 100000 {
			b.Fatalf("rows = %d", n)
		}
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// pointLookupDB opens a PMem engine holding 10,000 indexed Person nodes
// and returns it with the plan that looks one up by its number.
func pointLookupDB(b *testing.B) (*DB, *query.Plan) {
	db, err := Open(Config{Mode: PMem, PoolSize: 256 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	tx := db.Begin()
	for i := 0; i < 10000; i++ {
		if _, err := tx.CreateNode("Person", map[string]any{"num": int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("Person", "num", HybridIndex); err != nil {
		b.Fatal(err)
	}
	return db, &query.Plan{Root: &query.Project{
		Input: &query.IndexScan{Label: "Person", Key: "num", Value: &query.Param{Name: "n"}},
		Cols:  []query.Expr{&query.IDOf{Col: 0}},
	}}
}

// BenchmarkPointLookup measures an indexed point lookup through the
// public API on the PMem engine.
func BenchmarkPointLookup(b *testing.B) {
	db, plan := pointLookupDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.QueryCtx(context.Background(), plan, query.Params{"n": int64(i % 10000)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkSessionQueryAllPoint is the same lookup as a prepared
// statement through Session.QueryAll: against BenchmarkPointLookup it
// shows what the session's bookkeeping costs over the one-shot path,
// without running the benchmark spine.
func BenchmarkSessionQueryAllPoint(b *testing.B) {
	db, plan := pointLookupDB(b)
	stmt, err := db.PreparePlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := sess.QueryAll(ctx, stmt, query.Params{"n": int64(i % 10000)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// shortReadDB opens a DRAM database of 200 Person nodes, each knowing the
// next four by number, indexed by number, and prepares the shape of the
// benchmark's indexed short reads (LDBC SR3: a person's friends, newest
// friendship first): IndexScan → Expand → GetNode → OrderBy → Project.
func shortReadDB(tb testing.TB) (*DB, *Stmt) {
	db, err := Open(Config{Mode: DRAM, PoolSize: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(db.Close)
	tx := db.Begin()
	ids := make([]uint64, 200)
	for i := range ids {
		if ids[i], err = tx.CreateNode("Person", map[string]any{"num": int64(i), "name": fmt.Sprintf("p%d", i)}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range ids {
		for d := 1; d <= 4; d++ {
			since := map[string]any{"since": int64(1000*i + d)}
			if _, err := tx.CreateRel(ids[i], ids[(i+d)%len(ids)], "knows", since); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateIndex("Person", "num", HybridIndex); err != nil {
		tb.Fatal(err)
	}
	stmt, err := db.PreparePlan(&query.Plan{Root: &query.Project{
		Input: &query.OrderBy{
			Input: &query.GetNode{
				Input: &query.Expand{
					Input: &query.IndexScan{Label: "Person", Key: "num", Value: &query.Param{Name: "n"}},
					Col:   0, Dir: query.Both, RelLabel: "knows",
				},
				RelCol: 1, End: query.Other, OtherCol: 0,
			},
			Key: &query.Prop{Col: 1, Key: "since"}, Desc: true,
		},
		Cols: []query.Expr{&query.Prop{Col: 2, Key: "num"}, &query.Prop{Col: 2, Key: "name"}, &query.Prop{Col: 1, Key: "since"}},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return db, stmt
}

// BenchmarkIndexedShortRead runs the short-read shape of shortReadDB
// through Session.QueryAll: eight friends per person, so eight rows
// through OrderBy and the result boundary per op. Run with -benchmem for
// the read path's allocations per op.
func BenchmarkIndexedShortRead(b *testing.B) {
	db, stmt := shortReadDB(b)
	sess := db.NewSession(SessionConfig{})
	defer sess.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := sess.QueryAll(ctx, stmt, query.Params{"n": int64(i % 200)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}
