package core

import (
	"time"

	"poseidon/internal/index"
)

// Engine-side wiring of the index delta layer (Config.IndexDelta): every
// persistent shard tree absorbs commit-time index maintenance into its
// delta region, commits publish once per commit epoch, and an optional
// background goroutine merges deltas into the base trees so lookup
// overlays stay short. With MergeEvery zero, merges
// happen only inline (when a region fills) — the deterministic mode the
// crash explorer requires.

// enableTreeDelta switches a freshly created or reopened tree into delta
// mode when the engine is configured for it. Volatile trees have no
// persistence to amortize and are left alone; an enable failure (pool
// exhaustion) degrades that tree to the classic persist-per-insert path.
func (e *Engine) enableTreeDelta(t *index.Tree) {
	if !e.cfg.IndexDelta.Enabled || t.Kind() == index.Volatile {
		return
	}
	_ = t.EnableDelta()
}

// publishIndexDeltas publishes the delta regions of every index tree on
// the given shards — one Persist per dirty tree for the whole commit
// epoch. Caller holds the shards' commit locks, so publication lands in
// commit order.
func (e *Engine) publishIndexDeltas(shardOrder []int) {
	if !e.cfg.IndexDelta.Enabled {
		return
	}
	for _, s := range shardOrder {
		sh := &e.shards[s]
		sh.idxMu.RLock()
		for _, t := range sh.indexes {
			t.PublishDelta()
		}
		sh.idxMu.RUnlock()
	}
}

// startDeltaMerger launches the background merge goroutine when
// configured. Tree merges serialize on each tree's own lock, so the
// merger needs no shard locks and cannot deadlock with commits.
func (e *Engine) startDeltaMerger() {
	if !e.cfg.IndexDelta.Enabled || e.cfg.IndexDelta.MergeEvery <= 0 {
		return
	}
	e.mergeStop = make(chan struct{})
	e.mergeDone = make(chan struct{})
	go func() {
		defer close(e.mergeDone)
		tick := time.NewTicker(e.cfg.IndexDelta.MergeEvery)
		defer tick.Stop()
		for {
			select {
			case <-e.mergeStop:
				return
			case <-tick.C:
				for _, info := range e.Indexes() {
					_ = info.Tree.MergeDelta()
				}
			}
		}
	}()
}

// stopDeltaMerger stops the background merger and waits for it to exit.
// Idempotent; a no-op when the merger never started.
func (e *Engine) stopDeltaMerger() {
	if e.mergeStop == nil {
		return
	}
	close(e.mergeStop)
	<-e.mergeDone
	e.mergeStop, e.mergeDone = nil, nil
}
