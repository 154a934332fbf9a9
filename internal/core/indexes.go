package core

import (
	"errors"
	"fmt"

	"poseidon/internal/index"
	"poseidon/internal/storage"
)

// Secondary indexes are sharded exactly like the MVTO state: index
// (label, key) is a family of nShards trees, where tree s holds entries
// only for node ids owned by shard s. Commit-time maintenance therefore
// touches only trees of shards whose commit locks the transaction already
// holds, and index updates within a shard observe commit order.
//
// The persistent directory stores one entry per (index, shard):
//
//	word 0: label | shardCount<<32
//	word 1: key
//	word 2: kind | shard<<32
//	word 3: tree root offset
//
// Images written before sharding read shardCount 0 (treated as 1) and
// shard 0 — exactly one tree, which is what those images have. An image
// reopened with a different shard count repartitions record ownership,
// so its index families are replaced with empty trees and reconciled
// (a full rebuild) against the primary tables.

// idxDirEnt is one decoded persistent directory entry.
type idxDirEnt struct {
	label, key uint32
	kind       index.Kind
	shard      int
	shardCount int
	hdr        uint64
}

func (e *Engine) readIndexDir() []idxDirEnt {
	n := e.dev.ReadU64(e.root + rootIdxCount)
	if n > maxIndexes {
		n = maxIndexes
	}
	out := make([]idxDirEnt, 0, n)
	for i := uint64(0); i < n; i++ {
		ent := e.root + rootIdxDir + i*idxEntrySize
		w0 := e.dev.ReadU64(ent)
		w2 := e.dev.ReadU64(ent + 16)
		de := idxDirEnt{
			label:      uint32(w0),
			shardCount: int(w0 >> 32),
			key:        uint32(e.dev.ReadU64(ent + 8)),
			kind:       index.Kind(uint32(w2)),
			shard:      int(w2 >> 32),
			hdr:        e.dev.ReadU64(ent + 24),
		}
		if de.shardCount == 0 {
			de.shardCount = 1
		}
		out = append(out, de)
	}
	return out
}

// writeIndexDir replaces the whole persistent directory with the given
// entries. The count word is the commit point: a crash mid-rewrite leaves
// the old count over a partially new entry array, every prefix of which
// still describes structurally valid trees — the mismatch is detected at
// the next reopen and reconciled.
func (e *Engine) writeIndexDir(ents []idxDirEnt) error {
	if len(ents) > maxIndexes {
		return fmt.Errorf("core: too many persistent index entries (%d, max %d)", len(ents), maxIndexes)
	}
	for i, de := range ents {
		ent := e.root + rootIdxDir + uint64(i)*idxEntrySize
		e.dev.WriteU64(ent, uint64(de.label)|uint64(de.shardCount)<<32)
		e.dev.WriteU64(ent+8, uint64(de.key))
		e.dev.WriteU64(ent+16, uint64(de.kind)|uint64(de.shard)<<32)
		e.dev.WriteU64(ent+24, de.hdr)
		e.dev.Flush(ent, idxEntrySize)
	}
	e.dev.Drain()
	e.dev.WriteU64(e.root+rootIdxCount, uint64(len(ents)))
	e.dev.Persist(e.root+rootIdxCount, 8)
	return nil
}

// CreateIndex builds a secondary B+-tree index over the given property of
// nodes with the given label (§4.2 "Hybrid Indexes") and backfills it from
// the committed data. kind selects the Fig 8 variant; Hybrid is the
// paper's recommended default.
//
// Creation is safe against concurrent writers: each shard's tree is
// backfilled and published while holding that shard's commit lock, so the
// backfill sees exactly the commits that happened before it and
// commit-time maintenance (which runs under the same lock) sees the tree
// for every commit after it. No committed entry can fall between.
//
// A BulkLoader writes no index entries, so CreateIndex and NewBulkLoader
// refuse each other: while a loader is open CreateIndex returns
// ErrBulkLoad (before touching the dictionary, whose pool lock the
// loader's open batch holds).
func (e *Engine) CreateIndex(label, key string, kind index.Kind) error {
	e.idxDDL.Lock()
	defer e.idxDDL.Unlock()
	if e.bulkLoading.Load() {
		return ErrBulkLoad
	}
	labelCode, err := e.dict.Encode(label)
	if err != nil {
		return err
	}
	keyCode, err := e.dict.Encode(key)
	if err != nil {
		return err
	}
	ik := indexKey{uint32(labelCode), uint32(keyCode)}

	sh0 := &e.shards[0]
	sh0.idxMu.RLock()
	_, dup := sh0.indexes[ik]
	sh0.idxMu.RUnlock()
	if dup {
		return fmt.Errorf("core: index on (%s, %s) already exists", label, key)
	}
	if kind != index.Volatile {
		if int(e.dev.ReadU64(e.root+rootIdxCount))+e.nShards > maxIndexes {
			return fmt.Errorf("core: too many persistent index entries (max %d)", maxIndexes)
		}
	}

	trees := make([]*index.Tree, e.nShards)
	for s := range trees {
		if trees[s], err = index.Create(kind, e.pool, index.Options{}); err != nil {
			return err
		}
	}
	for s := 0; s < e.nShards; s++ {
		if err := e.backfillShard(trees[s], ik, s); err != nil {
			e.unpublishIndex(ik)
			return err
		}
	}

	if kind != index.Volatile {
		ents := e.readIndexDir()
		for s, t := range trees {
			ents = append(ents, idxDirEnt{
				label: ik.label, key: ik.key, kind: kind,
				shard: s, shardCount: e.nShards, hdr: t.Offset(),
			})
		}
		if err := e.writeIndexDir(ents); err != nil {
			e.unpublishIndex(ik)
			return err
		}
	}
	return nil
}

// backfillShard fills tree from the committed records owned by shard s
// and publishes it into the shard's index map, all under the shard's
// commit lock (the quiesce that closes the stale-snapshot window).
// Records locked by in-flight transactions still carry their committed
// pre-image — the locker's commit will apply its own index delta later,
// under this same lock. Tombstoned nodes are indexed too: their entries
// serve older snapshots until GC drops them. The entries go in with one
// InsertMany, which flushes each touched leaf once per sweep instead of
// once per entry.
//
//poseidonlint:ignore seqlock the whole scan runs under sh.commitMu (held for the ScanChunk closure), which excludes every writer to this shard's records
func (e *Engine) backfillShard(tree *index.Tree, ik indexKey, s int) error {
	sh := &e.shards[s]
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	var ents []index.Entry
	n := e.nodes.Chunks()
	for ci := uint64(s); ci < n; ci += uint64(e.nShards) {
		e.nodes.ScanChunk(ci, func(id, off uint64) bool {
			rec := storage.ReadNodeRec(e.dev, off)
			if rec.Bts == 0 || rec.Label != ik.label {
				return true // uncommitted insert or different label
			}
			if v, ok := storage.PropValue(e.props, rec.Props, ik.key); ok {
				ents = append(ents, index.Entry{Key: v, ID: id})
			}
			return true
		})
	}
	if err := tree.InsertMany(ents); err != nil {
		return err
	}
	sh.idxMu.RLock()
	_, dup := sh.indexes[ik]
	sh.idxMu.RUnlock()
	if dup { // idxDDL keeps a racing publisher out
		return fmt.Errorf("core: index (%d,%d) already exists", ik.label, ik.key)
	}
	e.setIndexTree(s, ik, tree)
	return nil
}

// setIndexTree, the only writer of the shard index maps, makes tree (nil:
// none) shard s's tree of ik and returns the one it replaced. It then
// drops ik's cached IndexRef: a ref built before the write cannot survive.
func (e *Engine) setIndexTree(s int, ik indexKey, tree *index.Tree) (old *index.Tree) {
	sh := &e.shards[s]
	sh.idxMu.Lock()
	if old = sh.indexes[ik]; tree != nil {
		sh.indexes[ik] = tree
	} else {
		delete(sh.indexes, ik)
	}
	sh.idxMu.Unlock()
	e.refMu.Lock()
	delete(e.refs, ik)
	e.refMu.Unlock()
	return old
}

// unpublishIndex removes a partially created index family from every
// shard map.
func (e *Engine) unpublishIndex(ik indexKey) {
	for s := range e.shards {
		if t := e.setIndexTree(s, ik, nil); t != nil {
			t.Close()
		}
	}
}

// RebuildVolatileIndexes recreates every volatile index from scratch —
// the full-rebuild recovery path that §7.4 measures at 671 ms against the
// hybrid index's 8 ms.
func (e *Engine) RebuildVolatileIndexes() error {
	e.idxDDL.Lock()
	defer e.idxDDL.Unlock()
	sh0 := &e.shards[0]
	sh0.idxMu.RLock()
	var keys []indexKey
	for ik, t := range sh0.indexes {
		if t.Kind() == index.Volatile {
			keys = append(keys, ik)
		}
	}
	sh0.idxMu.RUnlock()
	for _, ik := range keys {
		e.unpublishIndex(ik)
		for s := 0; s < e.nShards; s++ {
			tree, err := index.Create(index.Volatile, e.pool, index.Options{})
			if err != nil {
				return err
			}
			if err := e.backfillShard(tree, ik, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// reopenIndexes re-attaches the persistent index families recorded in the
// directory. A family whose stored shard count differs from the engine's
// is replaced with empty trees (and the directory rewritten): the
// partition function changed, so every entry would be in the wrong tree;
// reconcileIndexes then rebuilds the contents from the primary tables.
// So is a family with a tree written by the removed index delta layer
// (index.ErrDeltaImage), whose leaf chain may lack published entries.
func (e *Engine) reopenIndexes() error {
	type family struct {
		kind index.Kind
		ents []idxDirEnt
	}
	order := []indexKey{}
	fams := map[indexKey]*family{}
	for _, de := range e.readIndexDir() {
		ik := indexKey{de.label, de.key}
		f := fams[ik]
		if f == nil {
			f = &family{kind: de.kind}
			fams[ik] = f
			order = append(order, ik)
		}
		f.ents = append(f.ents, de)
	}
	rewrite := false
	for _, ik := range order {
		f := fams[ik]
		ok := len(f.ents) == e.nShards
		if ok {
			for s, de := range f.ents {
				if de.shard != s || de.shardCount != e.nShards || de.kind != f.kind {
					ok = false
					break
				}
			}
		}
		for s := 0; ok && s < e.nShards; s++ {
			de := f.ents[s]
			tree, err := index.Open(de.kind, e.pool, de.hdr, index.Options{})
			switch {
			case errors.Is(err, index.ErrDeltaImage):
				ok = false // ops published to the delta never reached the leaves
			case err != nil:
				return fmt.Errorf("core: reopen index (%d,%d) shard %d: %w", ik.label, ik.key, s, err)
			default:
				e.setIndexTree(s, ik, tree)
			}
		}
		if ok {
			continue
		}
		// Shard-count (or layout) mismatch: fresh empty trees, rebuilt by
		// reconcileIndexes. The old trees' blocks leak, as in any rebuild.
		rewrite = true
		e.unpublishIndex(ik) // closes the trees opened before the mismatch showed
		for s := 0; s < e.nShards; s++ {
			tree, err := index.Create(f.kind, e.pool, index.Options{})
			if err != nil {
				return err
			}
			e.setIndexTree(s, ik, tree)
		}
	}
	if rewrite {
		var ents []idxDirEnt
		for _, ik := range order {
			f := fams[ik]
			for s := 0; s < e.nShards; s++ {
				ents = append(ents, idxDirEnt{
					label: ik.label, key: ik.key, kind: f.kind,
					shard: s, shardCount: e.nShards,
					hdr: e.shards[s].indexes[ik].Offset(),
				})
			}
		}
		if err := e.writeIndexDir(ents); err != nil {
			return err
		}
	}
	return nil
}

// IndexRef is a resolved secondary index: one tree per shard. Lookups
// fan out over the shard trees; entries never cross shards, so the union
// is exact. Entry-level mutations route to the tree of the id's shard
// (crash tests use them to simulate torn index updates).
type IndexRef struct {
	label, key uint32
	kind       index.Kind
	nodes      *storage.Table
	trees      []*index.Tree
}

// Kind returns the index variant.
func (r *IndexRef) Kind() index.Kind { return r.kind }

// Lookup returns the node ids indexed under v across all shards.
func (r *IndexRef) Lookup(v storage.Value) []uint64 { return r.LookupAppend(nil, v) }

// LookupAppend is Lookup appending the ids to ids.
func (r *IndexRef) LookupAppend(ids []uint64, v storage.Value) []uint64 {
	for _, t := range r.trees {
		ids = t.LookupAppend(ids, v)
	}
	return ids
}

// treeFor returns the shard tree owning node id's entries.
func (r *IndexRef) treeFor(id uint64) *index.Tree {
	return r.trees[r.nodes.ShardOf(id)]
}

// Contains reports whether the entry (v, id) is present.
func (r *IndexRef) Contains(v storage.Value, id uint64) bool {
	return r.treeFor(id).Contains(v, id)
}

// Insert adds the entry (v, id) to the id's shard tree.
func (r *IndexRef) Insert(v storage.Value, id uint64) error {
	return r.treeFor(id).Insert(v, id)
}

// Delete removes the entry (v, id), reporting whether it was present.
func (r *IndexRef) Delete(v storage.Value, id uint64) bool {
	return r.treeFor(id).Delete(v, id)
}

// LookupIndex returns the index for (labelCode, keyCode), if one exists.
// The query planner uses this to turn scans into IndexScans. The ref is
// cached until setIndexTree replaces one of its trees.
func (e *Engine) LookupIndex(labelCode, keyCode uint32) (*IndexRef, bool) {
	ik := indexKey{labelCode, keyCode}
	e.refMu.RLock()
	ref := e.refs[ik]
	e.refMu.RUnlock()
	if ref != nil {
		return ref, true
	}
	e.refMu.Lock()
	defer e.refMu.Unlock()
	ref = &IndexRef{label: labelCode, key: keyCode, nodes: e.nodes, trees: make([]*index.Tree, e.nShards)}
	for s := range e.shards {
		sh := &e.shards[s]
		sh.idxMu.RLock()
		t := sh.indexes[ik]
		sh.idxMu.RUnlock()
		if t == nil {
			return nil, false
		}
		ref.trees[s] = t
	}
	ref.kind = ref.trees[0].Kind()
	e.refs[ik] = ref
	return ref, true
}

// IndexFor resolves an index by label and property name.
func (e *Engine) IndexFor(label, key string) (*IndexRef, bool) {
	lc, ok1 := e.dict.Lookup(label)
	kc, ok2 := e.dict.Lookup(key)
	if !ok1 || !ok2 {
		return nil, false
	}
	return e.LookupIndex(uint32(lc), uint32(kc))
}

// IndexedLookup returns the ids of nodes with the given label whose
// property equals v, using the index, re-validated against the
// transaction's snapshot.
func (tx *Tx) IndexedLookup(ref *IndexRef, v storage.Value) ([]NodeSnap, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	ids := ref.Lookup(v)
	out := make([]NodeSnap, 0, len(ids))
	for _, id := range ids {
		snap, err := tx.GetNode(id)
		if err == ErrNotFound {
			continue // index entry from a version invisible to us
		}
		if err != nil {
			return nil, err
		}
		out = append(out, snap)
	}
	return out, nil
}

// IndexInfo describes one shard tree of a secondary index for
// introspection (fsck and the crash explorer).
type IndexInfo struct {
	Label  uint32
	Key    uint32
	Kind   index.Kind
	Shard  int // which shard's entries the tree holds
	Shards int // the engine's shard count
	Tree   *index.Tree
}

// Indexes returns a snapshot of the engine's secondary index trees, one
// IndexInfo per (index, shard).
func (e *Engine) Indexes() []IndexInfo {
	var out []IndexInfo
	for s := range e.shards {
		sh := &e.shards[s]
		sh.idxMu.RLock()
		for ik, t := range sh.indexes {
			out = append(out, IndexInfo{
				Label: ik.label, Key: ik.key, Kind: t.Kind(),
				Shard: s, Shards: e.nShards, Tree: t,
			})
		}
		sh.idxMu.RUnlock()
	}
	return out
}

// entState marks whether a justified index entry must be present (live
// node) or is merely tolerated (tombstoned node awaiting GC).
type entState struct{ required bool }

// reconcileIndexes repairs persistent indexes against the recovered
// primary tables. Index maintenance runs after the commit point (step 4 of
// Commit), so a crash between the two can leave the last commits' entries
// missing and their superseded entries still present — at most one torn
// commit per shard, since each shard's commit lock serializes its index
// updates. Damaged trees are rebuilt outright; otherwise the tree is
// patched entry by entry, preserving the §7.4 recovery asymptotics (one
// table scan plus work proportional to the damage). Entries that sit in
// the wrong shard's tree (possible only after a shard-count change) are
// migrated by the same patch logic.
//
//poseidonlint:ignore seqlock recovery-time repair: runs before the engine accepts transactions, single-threaded with no concurrent writers
func (e *Engine) reconcileIndexes() error {
	sh0 := &e.shards[0]
	if len(sh0.indexes) == 0 {
		return nil
	}

	// One raw scan over the recovered node table builds, per index, the
	// set of entries the primary data justifies. Tombstoned nodes keep
	// their entries until GC (updateIndexes), so they are allowed but not
	// required; live nodes are required.
	allowed := make(map[indexKey]map[index.Entry]entState, len(sh0.indexes))
	for ik := range sh0.indexes {
		allowed[ik] = make(map[index.Entry]entState)
	}
	e.nodes.Scan(func(id, off uint64) bool {
		rec := storage.ReadNodeRec(e.dev, off)
		live := rec.Ets == Infinity
		for _, p := range storage.ReadPropChain(e.props, rec.Props) {
			ik := indexKey{rec.Label, p.Key}
			set, indexed := allowed[ik]
			if !indexed {
				continue
			}
			ent := index.Entry{Key: p.Val, ID: id}
			if prev, ok := set[ent]; !ok || !prev.required {
				set[ent] = entState{required: live}
			}
		}
		return true
	})

	for ik := range sh0.indexes {
		for s := range e.shards {
			tree := e.shards[s].indexes[ik]
			if tree == nil {
				return fmt.Errorf("core: index (%d,%d) missing shard %d tree", ik.label, ik.key, s)
			}
			if probs := tree.CheckIntegrity(); len(probs) > 0 {
				if err := e.rebuildIndexShard(ik, s, tree.Kind(), allowed[ik]); err != nil {
					return err
				}
				continue
			}
			// Drop entries the primary data does not justify (the torn
			// commit's superseded values, entries for reclaimed slots) or
			// that belong to another shard.
			var extra []index.Entry
			tree.WalkLeaves(func(_ uint64, entries []index.Entry, _ uint64) bool {
				for _, ent := range entries {
					if _, ok := allowed[ik][ent]; !ok || e.nodes.ShardOf(ent.ID) != s {
						extra = append(extra, ent)
					}
				}
				return true
			})
			for _, ent := range extra {
				tree.Delete(ent.Key, ent.ID)
			}
			// Insert entries live nodes of this shard require but the torn
			// commit never got to write.
			for ent, st := range allowed[ik] {
				if st.required && e.nodes.ShardOf(ent.ID) == s && !tree.Contains(ent.Key, ent.ID) {
					if err := tree.Insert(ent.Key, ent.ID); err != nil {
						return fmt.Errorf("core: reconcile index (%d,%d) shard %d: %w", ik.label, ik.key, s, err)
					}
				}
			}
		}
	}
	return nil
}

// rebuildIndexShard replaces a structurally damaged shard tree with a
// fresh one holding the shard's required entries, and repoints the
// persistent directory entry at it. The damaged tree's blocks leak (the
// allocator has no tracing collector), which is the price of surviving
// arbitrary leaf-chain damage.
func (e *Engine) rebuildIndexShard(ik indexKey, s int, kind index.Kind, entries map[index.Entry]entState) error {
	tree, err := index.Create(kind, e.pool, index.Options{})
	if err != nil {
		return err
	}
	for ent, st := range entries {
		if !st.required || e.nodes.ShardOf(ent.ID) != s {
			continue // tombstoned nodes' entries are optional; a rebuild omits them
		}
		if err := tree.Insert(ent.Key, ent.ID); err != nil {
			return fmt.Errorf("core: rebuild index (%d,%d) shard %d: %w", ik.label, ik.key, s, err)
		}
	}
	if kind != index.Volatile {
		n := e.dev.ReadU64(e.root + rootIdxCount)
		for i := uint64(0); i < n; i++ {
			ent := e.root + rootIdxDir + i*idxEntrySize
			w0 := e.dev.ReadU64(ent)
			w2 := e.dev.ReadU64(ent + 16)
			if uint32(w0) == ik.label && uint32(e.dev.ReadU64(ent+8)) == ik.key && int(w2>>32) == s {
				e.dev.WriteU64(ent+24, tree.Offset())
				e.dev.Persist(ent+24, 8)
				break
			}
		}
	}
	e.setIndexTree(s, ik, tree).Close()
	return nil
}
