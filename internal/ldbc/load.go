package ldbc

import (
	"fmt"

	"poseidon/internal/core"
	"poseidon/internal/index"
)

// LoadCoreTx loads the dataset through the regular MVTO transaction
// path — the ingest baseline LoadCore's bulk loader is measured against.
// Indexes, when asked for, are created first and maintained by every
// commit. Every transaction carries txOps entities (1 reproduces the
// one-commit-per-entity worst case).
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
