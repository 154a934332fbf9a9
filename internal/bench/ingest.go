package bench

import (
	"context"
	"fmt"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/ldbc"
	"poseidon/internal/query"
)

// Ingest measures the write-optimized ingest trajectory (PR 10): the
// drain (fence) events each committed IU transaction pays as an epoch of
// one (Tx.Commit) and as a member of an 8-transaction epoch
// (CommitBatch), and bulk-load throughput against the
// one-transaction-per-entity baseline. Both comparisons run unsharded
// and single-threaded, so the figure is deterministic and
// scheduling-independent.
func Ingest(ctx context.Context, opts Options) (*Table, error) {
	opts.fill()
	t := &Table{
		Name:    "Ingest: commit-epoch fences and bulk-load throughput (unsharded PMem)",
		Columns: []string{"ktx/s", "drains/txn", "speedup"},
		Notes: []string{
			"iu-*: LDBC IU update transactions; iu-pertxn commits epochs of one, iu-group batches 8 through CommitBatch",
			"iu drains/txn counts commit-path sfence events per committed transaction",
			"(operation-time allocation fences are identical across the two variants)",
			"load-*: full dataset ingest, ktx/s counts entities (nodes+edges) per second",
			"speedup is relative to the section's per-transaction baseline",
		},
	}

	iuPerTxn, iuGroup, err := ingestIU(ctx, opts)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		iuPerTxn.row("iu-pertxn", iuPerTxn),
		iuGroup.row("iu-group", iuPerTxn),
	)

	loadPerTxn, loadBulk, err := ingestLoad(opts)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		loadPerTxn.row("load-pertxn", loadPerTxn),
		loadBulk.row("load-bulk", loadPerTxn),
	)
	return t, nil
}

// ingestStat is one measured ingest variant.
type ingestStat struct {
	txns    uint64
	drains  uint64
	elapsed time.Duration
}

func (s ingestStat) perTxn() float64 { return float64(s.drains) / float64(s.txns) }

func (s ingestStat) row(name string, base ingestStat) TableRow {
	ktps := float64(s.txns) / s.elapsed.Seconds() / 1e3
	baseKtps := float64(base.txns) / base.elapsed.Seconds() / 1e3
	return TableRow{
		Query: name,
		Cells: map[string]float64{
			"ktx/s":      ktps,
			"drains/txn": s.perTxn(),
			"speedup":    ktps / baseKtps,
		},
	}
}

// ingestIU loads a small dataset, then commits IU update transactions
// one per epoch (Tx.Commit) and in 8-member epochs (CommitBatch),
// counting drains around the commit phase only.
func ingestIU(ctx context.Context, opts Options) (perTxn, grouped ingestStat, err error) {
	persons := opts.Persons
	if persons > 200 {
		persons = 200
	}
	ds := ldbc.Generate(ldbc.Config{Persons: persons, Seed: opts.Seed})
	iuTxns := opts.Runs * 8
	if iuTxns < 64 {
		iuTxns = 64
	}

	run := func(group bool) (ingestStat, error) {
		e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 512 << 20, Shards: 1})
		if err != nil {
			return ingestStat{}, err
		}
		defer e.Close()
		if err := ds.LoadCore(e, true, index.Hybrid); err != nil {
			return ingestStat{}, err
		}

		queries := ldbc.IUQueries()
		prepared := make([]*query.Prepared, len(queries))
		for i, q := range queries {
			plan, err := ldbc.IUPlan(q, true)
			if err != nil {
				return ingestStat{}, err
			}
			if prepared[i], err = query.Prepare(e, plan); err != nil {
				return ingestStat{}, err
			}
		}
		pg := ldbc.NewParamGen(ds, opts.Seed+4242)

		// drains/txn counts the commit path only: operation-time
		// allocation fences are identical across the two variants, so
		// the commit protocol is where epoch size changes the fence bill
		// per transaction.
		var st ingestStat
		start := time.Now()
		const groupSize = 8
		batch := make([]*core.Tx, 0, groupSize)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			before := e.Device().Stats.Snapshot()
			for _, err := range e.CommitBatch(batch) {
				if err == nil {
					st.txns++
				}
			}
			st.drains += e.Device().Stats.Snapshot().Sub(before).Drains
			batch = batch[:0]
			return nil
		}
		for i := 0; i < iuTxns; i++ {
			q := queries[i%len(queries)]
			params := pg.IUParams(q)
			tx := e.Begin()
			if _, err := prepared[i%len(queries)].CollectCtx(ctx, tx, params); err != nil {
				// Two in-flight batch members touched the same record:
				// drain the epoch, then retry against committed state.
				tx.Abort()
				if err := flush(); err != nil {
					return ingestStat{}, err
				}
				tx = e.Begin()
				if _, err := prepared[i%len(queries)].CollectCtx(ctx, tx, params); err != nil {
					tx.Abort()
					return ingestStat{}, err
				}
			}
			if group {
				if batch = append(batch, tx); len(batch) == groupSize {
					if err := flush(); err != nil {
						return ingestStat{}, err
					}
				}
			} else {
				before := e.Device().Stats.Snapshot()
				if err := tx.Commit(); err == nil {
					st.txns++
				}
				st.drains += e.Device().Stats.Snapshot().Sub(before).Drains
			}
		}
		if err := flush(); err != nil {
			return ingestStat{}, err
		}
		st.elapsed = time.Since(start)
		if st.txns == 0 {
			return ingestStat{}, fmt.Errorf("bench: no IU transaction committed")
		}
		return st, nil
	}

	if perTxn, err = run(false); err != nil {
		return
	}
	grouped, err = run(true)
	return
}

// ingestLoad times the full dataset ingest through the one-transaction-
// per-entity baseline and through LoadCore (the bulk loader, then one
// index backfill per workload index), workload indexes included in both.
func ingestLoad(opts Options) (perTxn, bulk ingestStat, err error) {
	persons := opts.Persons
	if persons > 300 {
		persons = 300
	}
	ds := ldbc.Generate(ldbc.Config{Persons: persons, Seed: opts.Seed})
	entities := uint64(len(ds.Nodes) + len(ds.Edges))

	run := func(load func(*core.Engine) error) (ingestStat, error) {
		e, err := core.Open(core.Config{Mode: core.PMem, PoolSize: 1 << 30, Shards: 1})
		if err != nil {
			return ingestStat{}, err
		}
		defer e.Close()
		before := e.Device().Stats.Snapshot()
		start := time.Now()
		if err := load(e); err != nil {
			return ingestStat{}, err
		}
		return ingestStat{
			txns:    entities,
			elapsed: time.Since(start),
			drains:  e.Device().Stats.Snapshot().Sub(before).Drains,
		}, nil
	}

	perTxn, err = run(func(e *core.Engine) error {
		return ds.LoadCoreTx(e, true, index.Hybrid, 1)
	})
	if err != nil {
		return
	}
	bulk, err = run(func(e *core.Engine) error {
		return ds.LoadCore(e, true, index.Hybrid)
	})
	return
}
