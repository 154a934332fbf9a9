package ldbc

import (
	"fmt"

	"poseidon/internal/core"
	"poseidon/internal/index"
)

// BulkLoadCore streams the dataset into the engine through the
// write-optimized bulk path. When withIndexes is set the workload
// indexes are created up front, on the empty engine, so the bulk
// loader's deferred per-batch publication builds them as the data lands
// — no full backfill scan after the load. Records stream through the
// loader's per-shard appenders with one watermark advance per batch.
func (ds *Dataset) BulkLoadCore(e *core.Engine, withIndexes bool, kind index.Kind) error {
	if withIndexes {
		for _, spec := range IndexSpecs() {
			if err := e.CreateIndex(spec[0], spec[1], kind); err != nil {
				return err
			}
		}
	}
	bl := e.NewBulkLoader()
	ids := make([]uint64, len(ds.Nodes))
	for i, n := range ds.Nodes {
		id, err := bl.AddNode(n.Label, n.Props)
		if err != nil {
			return fmt.Errorf("ldbc: bulk load node %d: %w", i, err)
		}
		ids[i] = id
	}
	for i, ed := range ds.Edges {
		if _, err := bl.AddRel(ids[ed.Src], ids[ed.Dst], ed.Label, ed.Props); err != nil {
			return fmt.Errorf("ldbc: bulk load edge %d: %w", i, err)
		}
	}
	return bl.Finish()
}

// LoadCoreTx loads the dataset through the regular MVTO transaction
// path — the ingest baseline the bulk loader is measured against. Every
// transaction carries txOps entities (1 reproduces the one-commit-per-
// entity worst case).
func (ds *Dataset) LoadCoreTx(e *core.Engine, withIndexes bool, kind index.Kind, txOps int) error {
	if txOps < 1 {
		txOps = 1
	}
	if withIndexes {
		for _, spec := range IndexSpecs() {
			if err := e.CreateIndex(spec[0], spec[1], kind); err != nil {
				return err
			}
		}
	}
	ids := make([]uint64, len(ds.Nodes))
	var tx *core.Tx
	ops := 0
	commit := func() error {
		if tx == nil {
			return nil
		}
		err := tx.Commit()
		tx = nil
		ops = 0
		return err
	}
	for i, n := range ds.Nodes {
		if tx == nil {
			tx = e.Begin()
		}
		id, err := tx.CreateNode(n.Label, n.Props)
		if err != nil {
			tx.Abort()
			return fmt.Errorf("ldbc: tx load node %d: %w", i, err)
		}
		ids[i] = id
		if ops++; ops >= txOps {
			if err := commit(); err != nil {
				return fmt.Errorf("ldbc: tx load commit at node %d: %w", i, err)
			}
		}
	}
	if err := commit(); err != nil {
		return fmt.Errorf("ldbc: tx load commit after nodes: %w", err)
	}
	for i, ed := range ds.Edges {
		if tx == nil {
			tx = e.Begin()
		}
		if _, err := tx.CreateRel(ids[ed.Src], ids[ed.Dst], ed.Label, ed.Props); err != nil {
			tx.Abort()
			return fmt.Errorf("ldbc: tx load edge %d: %w", i, err)
		}
		if ops++; ops >= txOps {
			if err := commit(); err != nil {
				return fmt.Errorf("ldbc: tx load commit at edge %d: %w", i, err)
			}
		}
	}
	return commit()
}
