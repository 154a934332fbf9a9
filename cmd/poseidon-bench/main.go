// Command poseidon-bench regenerates the paper's evaluation figures
// (Fig 5-10) as text tables.
//
// Usage:
//
//	poseidon-bench [-persons N] [-runs N] [-workers N] [-fig 5|6|7|8|9|10|stream|all]
//	               [-json out.json] [-checkjson out.json]
//
// The extra "stream" figure compares materialized vs streamed result
// delivery through the public session API, and "traceoverhead" measures
// the cost of request tracing against the nil-handle disabled path
// (neither is part of the paper).
//
// -json writes a machine-readable result (schema poseidon-bench/v1):
// the configuration and every regenerated figure with
// mean/p50/p95/min/max per cell. -checkjson validates such a file's
// structure and exits — CI uses the pair as its smoke contract.
//
// Absolute times depend on the simulated device latencies; the shapes
// (who wins, by roughly what factor) are the reproduction target. See
// EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"poseidon"
	"poseidon/internal/bench"
	"poseidon/internal/query"
)

func main() {
	persons := flag.Int("persons", 500, "dataset scale (number of persons; SNB ratios derive the rest)")
	runs := flag.Int("runs", 20, "measured repetitions per query (the paper uses 50)")
	workers := flag.Int("workers", 0, "parallel/adaptive workers (0 = GOMAXPROCS)")
	fig := flag.String("fig", "all", "which figure to regenerate: 5, 6, 7, 8, 9, 10, ablations, stream, saturation, ingest, traceoverhead or all")
	seed := flag.Int64("seed", 42, "dataset and parameter seed")
	jsonPath := flag.String("json", "", "also write a machine-readable result to this path")
	checkPath := flag.String("checkjson", "", "validate a previously written -json file and exit")
	flag.Parse()

	if *checkPath != "" {
		data, err := os.ReadFile(*checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkjson:", err)
			os.Exit(1)
		}
		r, err := bench.ValidateJSON(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "checkjson:", err)
			os.Exit(1)
		}
		fmt.Printf("checkjson: %s ok (%d figures)\n", *checkPath, len(r.Figures))
		return
	}

	fmt.Printf("poseidon-bench: persons=%d runs=%d workers=%d GOMAXPROCS=%d\n",
		*persons, *runs, *workers, runtime.GOMAXPROCS(0))
	start := time.Now()
	s, err := bench.NewSetup(bench.Options{
		Persons: *persons, Runs: *runs, Workers: *workers, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	s.Ctx = context.Background()
	defer s.Close()
	fmt.Printf("loaded %d nodes, %d edges into pmem, dram and disk engines in %v\n\n",
		len(s.DS.Nodes), len(s.DS.Edges), time.Since(start).Round(time.Millisecond))

	figures := map[string]func() (*bench.Table, error){
		"5": s.Fig5, "6": s.Fig6, "7": s.Fig7, "8": s.Fig8, "9": s.Fig9, "10": s.Fig10,
		"ablations":     s.Ablations,
		"stream":        func() (*bench.Table, error) { return streamFigure(*runs) },
		"saturation":    func() (*bench.Table, error) { return bench.Saturation(s.Opts) },
		"ingest":        func() (*bench.Table, error) { return bench.Ingest(s.Ctx, s.Opts) },
		"traceoverhead": func() (*bench.Table, error) { return traceFigure(*runs) },
	}
	order := []string{"5", "6", "7", "8", "9", "10", "ablations", "stream", "saturation", "ingest", "traceoverhead"}

	var collected []*bench.Table
	run := func(name string) {
		f, ok := figures[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			os.Exit(2)
		}
		t0 := time.Now()
		tbl, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", name, err)
			os.Exit(1)
		}
		collected = append(collected, tbl)
		fmt.Print(tbl.Format())
		fmt.Printf("(regenerated in %v)\n\n", time.Since(t0).Round(time.Millisecond))
	}

	if *fig == "all" {
		for _, name := range order {
			run(name)
		}
	} else {
		run(*fig)
	}

	if *jsonPath != "" {
		if err := writeResult(*jsonPath, s.Opts, collected); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// writeResult assembles the machine-readable result from the collected
// figures, validated before it touches disk.
func writeResult(path string, opts bench.Options, figures []*bench.Table) error {
	r := &bench.Result{
		Schema:      bench.ResultSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Config:      opts,
		Figures:     figures,
	}
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceFigure measures request-tracing overhead through the public
// session API. Three identically loaded DRAM databases run the same
// prepared scan: tracing disabled (the production default — every
// instrumented call site no-ops through a nil handle), enabled at the
// default 0.1 tail-sampling rate, and enabled retaining every trace.
// Rounds interleave across the variants so GC and scheduler noise
// spread evenly instead of penalizing whichever runs last. The "off"
// row is the baseline CI guards against: overhead_pct must stay ~0 for
// off (by construction) and bounded for the enabled rows.
func traceFigure(runs int) (*bench.Table, error) {
	variants := []struct {
		name string
		cfg  poseidon.TraceConfig
	}{
		{"off", poseidon.TraceConfig{}},
		{"sampled", poseidon.TraceConfig{Enabled: true, SampleRate: 0.1}},
		{"full", poseidon.TraceConfig{Enabled: true, SampleRate: 1, RingSize: 256}},
	}
	const nodes = 2000
	type instance struct {
		db    *poseidon.DB
		sess  *poseidon.Session
		stmt  *poseidon.Stmt
		total time.Duration
		ops   int
	}
	insts := make([]*instance, len(variants))
	for i, v := range variants {
		db, err := poseidon.Open(poseidon.Config{
			Mode:      poseidon.DRAM,
			PoolSize:  256 << 20,
			Telemetry: poseidon.TelemetryConfig{Enabled: true, Trace: v.cfg},
		})
		if err != nil {
			return nil, err
		}
		defer db.Close()
		tx := db.Begin()
		for j := 0; j < nodes; j++ {
			if _, err := tx.CreateNode("Person", map[string]any{"v": int64(j)}); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		stmt, err := db.PreparePlan(&query.Plan{Root: &query.Project{
			Input: &query.NodeScan{Label: "Person"},
			Cols:  []query.Expr{&query.Prop{Col: 0, Key: "v"}},
		}})
		if err != nil {
			return nil, err
		}
		sess := db.NewSession(poseidon.SessionConfig{})
		defer sess.Close()
		insts[i] = &instance{db: db, sess: sess, stmt: stmt}
	}

	ctx := context.Background()
	once := func(in *instance) error {
		rows, err := in.sess.Query(ctx, in.stmt, nil)
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			_ = rows.Row()
			n++
		}
		if err := rows.Close(); err != nil {
			return err
		}
		if n != nodes {
			return fmt.Errorf("scanned %d of %d rows", n, nodes)
		}
		return nil
	}
	// Scale rounds so the smoke config (-runs 2) still takes long enough
	// to measure: each round is opsPerRound queries per variant.
	const opsPerRound = 20
	rounds := runs
	if rounds < 2 {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		for _, in := range insts {
			t0 := time.Now()
			for k := 0; k < opsPerRound; k++ {
				if err := once(in); err != nil {
					return nil, err
				}
			}
			in.total += time.Since(t0)
			in.ops += opsPerRound
		}
	}

	t := &bench.Table{
		Name:    fmt.Sprintf("request-tracing overhead (queries/s, %d-node scan via Session)", nodes),
		Columns: []string{"queries/s", "overhead_pct"},
		Notes: []string{
			"off: tracing disabled — instrumented call sites no-op through a nil *trace.Tracer",
			"sampled: tracing on, default 0.1 tail-sampling rate (production shape)",
			"full: tracing on, every trace retained (sample rate 1)",
			"overhead_pct is relative to the off row; rounds interleave across variants",
		},
	}
	base := float64(insts[0].ops) / insts[0].total.Seconds()
	for i, v := range variants {
		qps := float64(insts[i].ops) / insts[i].total.Seconds()
		t.Rows = append(t.Rows, bench.TableRow{
			Query: v.name,
			Cells: map[string]float64{
				"queries/s":    qps,
				"overhead_pct": 100 * (base - qps) / base,
			},
		})
	}
	return t, nil
}

// streamFigure compares materialized ([][]any via DB.QueryCtx) against
// streamed (Session.Query + Rows, raw values) delivery of a 100k-node
// scan through the public API.
func streamFigure(runs int) (*bench.Table, error) {
	db, err := poseidon.Open(poseidon.Config{Mode: poseidon.DRAM, PoolSize: 512 << 20})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	const nodes = 100000
	const batch = 10000
	for i := 0; i < nodes; i += batch {
		tx := db.Begin()
		for j := i; j < i+batch; j++ {
			if _, err := tx.CreateNode("Person", map[string]any{"v": int64(j)}); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	plan := &query.Plan{Root: &query.Project{
		Input: &query.NodeScan{Label: "Person"},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "v"}},
	}}
	stmt, err := db.PreparePlan(plan)
	if err != nil {
		return nil, err
	}
	sess := db.NewSession(poseidon.SessionConfig{})
	defer sess.Close()

	runMat := func() error {
		rows, err := db.QueryCtx(context.Background(), plan, nil)
		if err != nil {
			return err
		}
		if len(rows) != nodes {
			return fmt.Errorf("materialized %d rows", len(rows))
		}
		return nil
	}
	runStr := func() error {
		rows, err := sess.Query(context.Background(), stmt, nil)
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			_ = rows.Row()
			n++
		}
		if err := rows.Close(); err != nil {
			return err
		}
		if n != nodes {
			return fmt.Errorf("streamed %d rows", n)
		}
		return nil
	}
	// Interleave the two variants so GC pauses (the materialized path
	// allocates ~60 MB per run) spread evenly instead of all landing on
	// whichever variant runs second.
	var matTotal, strTotal time.Duration
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := runMat(); err != nil {
			return nil, err
		}
		matTotal += time.Since(t0)
		t0 = time.Now()
		if err := runStr(); err != nil {
			return nil, err
		}
		strTotal += time.Since(t0)
	}
	krows := func(total time.Duration) float64 {
		return float64(nodes) * float64(runs) / total.Seconds() / 1e3
	}
	mat, str := krows(matTotal), krows(strTotal)
	return &bench.Table{
		Name:    "streamed vs materialized result delivery (krows/s, 100k-node scan)",
		Columns: []string{"materialized", "streamed"},
		Rows: []bench.TableRow{{
			Query: "scan100k",
			Cells: map[string]float64{"materialized": mat, "streamed": str},
		}},
		Notes: []string{
			"materialized decodes every value into [][]any before returning",
			"streamed pulls raw rows through a Session/Rows cursor as the scan runs",
		},
	}, nil
}
