// Package bench is the experiment harness that regenerates every figure
// of the paper's evaluation (§7): Fig 5 (SR across DISK/DRAM/PMem ×
// single/parallel/indexed), Fig 6 (IU execute+commit, hot and cold),
// Fig 7 (SR under the JIT engine), Fig 8 (B+-tree variants and recovery),
// Fig 9 (IU under the JIT engine, cold vs hot code) and Fig 10 (adaptive
// execution vs multi-threaded AOT). Both the testing.B benchmarks at the
// repository root and cmd/poseidon-bench drive this package.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/diskstore"
	"poseidon/internal/index"
	"poseidon/internal/jit"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
)

// Options scales the experiments.
type Options struct {
	// Persons scales the LDBC-SNB-like dataset (default 500).
	Persons int `json:"persons"`
	// Runs is the number of measured repetitions per query (the paper
	// uses 50). Default 20.
	Runs int `json:"runs"`
	// Workers bounds parallel/adaptive execution (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// Seed fixes dataset and parameter generation.
	Seed int64 `json:"seed"`
	// PoolSize for each engine (default 1 GiB).
	PoolSize int `json:"pool_size"`
}

func (o *Options) fill() {
	if o.Persons == 0 {
		o.Persons = 500
	}
	if o.Runs == 0 {
		o.Runs = 20
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PoolSize == 0 {
		o.PoolSize = 1 << 30
	}
}

// Setup holds the three loaded systems under test.
type Setup struct {
	Opts Options
	DS   *ldbc.Dataset

	// Ctx is threaded through every measured execution so a cancelled
	// benchmark run aborts mid-query. NewSetup's caller sets it before
	// running a figure; it must not be nil.
	Ctx context.Context

	PMem    *core.Engine
	PMemJIT *jit.Engine
	DRAM    *core.Engine
	DRAMJIT *jit.Engine
	Disk    *diskstore.Store
}

// NewSetup generates the dataset and loads it into the PMem engine, the
// DRAM engine and the disk baseline, with the workload indexes on each.
func NewSetup(opts Options) (*Setup, error) {
	opts.fill()
	s := &Setup{Opts: opts, DS: ldbc.Generate(ldbc.Config{Persons: opts.Persons, Seed: opts.Seed})}

	var err error
	if s.PMem, err = core.Open(core.Config{Mode: core.PMem, PoolSize: opts.PoolSize}); err != nil {
		return nil, err
	}
	if err = s.DS.LoadCore(s.PMem, true, index.Hybrid); err != nil {
		return nil, err
	}
	if s.PMemJIT, err = jit.New(s.PMem); err != nil {
		return nil, err
	}

	if s.DRAM, err = core.Open(core.Config{Mode: core.DRAM, PoolSize: opts.PoolSize}); err != nil {
		return nil, err
	}
	if err = s.DS.LoadCore(s.DRAM, true, index.Volatile); err != nil {
		return nil, err
	}
	if s.DRAMJIT, err = jit.New(s.DRAM); err != nil {
		return nil, err
	}

	s.Disk = diskstore.Open(diskstore.Config{BufferPages: 1 << 15})
	s.DS.LoadDisk(s.Disk)
	s.Disk.Checkpoint()
	return s, nil
}

// Close releases the engines.
func (s *Setup) Close() {
	s.PMem.Close()
	s.DRAM.Close()
}

// Table is one experiment's result: rows per query, one cell per system
// variant, in microseconds unless a column says otherwise.
type Table struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    []TableRow `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// TableRow is one query's measurements. Cells holds the headline number
// per column (the mean, except where a column says otherwise); Dists
// holds the full distribution for columns produced by repeated runs.
type TableRow struct {
	Query string             `json:"query"`
	Cells map[string]float64 `json:"cells"`
	Dists map[string]Dist    `json:"dists,omitempty"`
}

// set records a measured distribution under col: the mean becomes the
// table cell, the distribution is kept for machine consumers.
func (r *TableRow) set(col string, d Dist) {
	if r.Cells == nil {
		r.Cells = map[string]float64{}
	}
	if r.Dists == nil {
		r.Dists = map[string]Dist{}
	}
	r.Cells[col] = d.Mean
	r.Dists[col] = d
}

// Dist summarizes repeated measurements of one variant, in microseconds.
type Dist struct {
	Mean float64 `json:"mean_us"`
	P50  float64 `json:"p50_us"`
	P95  float64 `json:"p95_us"`
	Min  float64 `json:"min_us"`
	Max  float64 `json:"max_us"`
}

// distOf summarizes a sample of run durations.
func distOf(samples []time.Duration) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, s := range sorted {
		total += s
	}
	pct := func(q float64) time.Duration {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	return Dist{
		Mean: us(total / time.Duration(len(sorted))),
		P50:  us(pct(0.50)),
		P95:  us(pct(0.95)),
		Min:  us(sorted[0]),
		Max:  us(sorted[len(sorted)-1]),
	}
}

// Format renders the table as aligned text, mirroring the figure's rows.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Name)
	fmt.Fprintf(&b, "%-10s", "query")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s", r.Query)
		for _, c := range t.Columns {
			if v, ok := r.Cells[c]; ok {
				fmt.Fprintf(&b, "%14.1f", v)
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// measure runs f runs times and returns the timing distribution.
func measure(runs int, f func(i int) error) (Dist, error) {
	samples := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return Dist{}, err
		}
		samples = append(samples, time.Since(start))
	}
	return distOf(samples), nil
}

// runSRInterp executes a prepared SR plan once, single-threaded.
func runSRInterp(ctx context.Context, e *core.Engine, pr *query.Prepared, params query.Params) error {
	tx := e.Begin()
	defer tx.Abort()
	return pr.RunCtx(ctx, tx, params, func(query.Row) bool { return true })
}

// runSRParallel executes with morsel-driven parallelism.
func runSRParallel(ctx context.Context, e *core.Engine, pr *query.Prepared, params query.Params, workers int) error {
	tx := e.Begin()
	defer tx.Abort()
	return pr.RunParallelCtx(ctx, tx, params, workers, func(query.Row) bool { return true })
}

// srParams pre-draws one parameter set per run so every system variant
// sees the identical sequence.
func (s *Setup) srParams(q ldbc.QueryID, runs int) []query.Params {
	pg := ldbc.NewParamGen(s.DS, s.Opts.Seed+int64(q.Num)*100+int64(len(q.Variant)))
	out := make([]query.Params, runs)
	for i := range out {
		out[i] = pg.SRParams(q)
	}
	return out
}
