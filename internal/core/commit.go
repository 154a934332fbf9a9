package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
	"poseidon/internal/trace"
)

// --- shard lock ordering ---
//
// Every code path that needs more than one shard commit lock MUST acquire
// them through lockShards (or lockAllShards), which takes the locks in
// ascending shard order. Shard locks nest outside the pool/lane mutexes
// and the table mutex; nothing that holds a pool transaction may wait on
// a shard commit lock. poseidonlint's lockorder pass enforces that no
// other function takes two shard commit locks directly.

// lockShards acquires the commit locks of the given shards, which must be
// sorted in ascending order. Contention is charged to each shard's
// lock-wait gauge and attributed, per shard, on the commit span of every
// transaction the locks are taken for (members may be nil).
func (e *Engine) lockShards(order []int, members []*Tx) {
	for _, s := range order {
		sh := &e.shards[s]
		// TryLock first: the uncontended fast path pays no clock reads,
		// and the failure count is a scheduling-independent contention
		// measure (unlike wait time, which conflates lock contention
		// with CPU scarcity on oversubscribed hosts).
		if sh.commitMu.TryLock() {
			continue
		}
		sh.lockContended.Add(1)
		start := time.Now()
		sh.commitMu.Lock()
		if w := time.Since(start); w > 0 {
			sh.lockWaitNs.Add(uint64(w.Nanoseconds()))
			for _, tx := range members {
				if tx.seat.span != nil {
					tx.seat.span.SetAttr(fmt.Sprintf("lock_wait_shard%d_ns", s), w.Nanoseconds())
				}
			}
		}
	}
}

// unlockShards releases the commit locks in reverse acquisition order.
func (e *Engine) unlockShards(order []int) {
	for i := len(order) - 1; i >= 0; i-- {
		e.shards[order[i]].commitMu.Unlock()
	}
}

// lockAllShards takes every shard commit lock (ascending); used by
// physical GC, whose adjacency rewrites touch records in arbitrary
// shards, and by online index creation's quiesce step.
func (e *Engine) lockAllShards()   { e.lockShards(e.allShards, nil) }
func (e *Engine) unlockAllShards() { e.unlockShards(e.allShards) }

// commitShards returns the sorted set of shards whose commit locks this
// transaction needs: the shard of every dirty object, plus the shards of
// the property records an update will free. Old property chains are
// normally co-sharded with their owner, but a reopen with a different
// shard count repartitions chunk ownership, so the chain is walked
// rather than assumed.
func (tx *Tx) commitShards() []int {
	e := tx.e
	set := make(map[int]struct{}, 2)
	for _, key := range tx.order {
		d := tx.dirty[key]
		set[e.shardOf(key)] = struct{}{}
		if d.hasOld && d.propsChanged && !d.isDelete {
			e.addPropChainShards(d.oldPropHead(), set)
		}
	}
	order := make([]int, 0, len(set))
	for s := range set {
		order = append(order, s)
	}
	sort.Ints(order)
	return order
}

// addPropChainShards adds the shard of every record in the property chain
// starting at head to set. The chain structure is committed state and the
// caller's objects are write-locked, so the walk is stable.
func (e *Engine) addPropChainShards(head uint64, set map[int]struct{}) {
	for id := head; id != storage.NilID; {
		off, ok := e.props.RecordOffset(id)
		if !ok {
			return
		}
		set[e.props.ShardOf(id)] = struct{}{}
		id = e.dev.ReadU64(off + storage.PNext)
	}
}

// Commit persists the transaction (§5.1 Commit) by joining a commit
// epoch — the one pipeline every commit runs through (see commitEpoch).
// A transaction whose writes stay inside one shard queues on that shard
// and commits together with whoever else is waiting there; alone, it is
// simply the leader of an epoch of one. A cross-shard transaction
// (including one whose old property chains straddle shards after a
// shard-count change) is an epoch of one over its ascending lock set.
func (tx *Tx) Commit() error {
	tx.endMu.Lock()
	defer tx.endMu.Unlock()
	order, err := tx.precommit()
	if order == nil {
		return err
	}
	if len(order) == 1 {
		return tx.commitQueued(order)
	}
	tx.e.commitEpoch(order, []*Tx{tx})
	return tx.seat.result
}

// precommit is the check every commit producer runs, under tx.endMu,
// before seating the transaction in an epoch. It returns the ascending
// shard lock set of a live transaction with writes; a nil set means the
// commit already concluded with err — the transaction was finished,
// cancelled (a cancelled context turns Commit into a rollback: nothing of
// the transaction becomes visible) or had nothing to persist.
func (tx *Tx) precommit() (order []int, err error) {
	if tx.done.Load() {
		return nil, tx.doneErr()
	}
	if err := tx.ctxErr(); err != nil {
		tx.setAbortReason(AbortCancelled)
		_ = tx.abortLocked()
		return nil, err
	}
	if len(tx.order) == 0 {
		tx.e.tel.TxCommits.Inc()
		tx.finish()
		return nil, nil
	}
	order = tx.commitShards()
	// Request tracing: Session.Exec (and the server's explicit COMMIT
	// path) attach their span to the transaction's context; with tracing
	// off the handle is nil and every span call no-ops.
	sp := trace.FromContext(tx.Context()).Child("core.commit", trace.KindCommit)
	sp.SetAttr("shards", int64(len(order)))
	sp.SetAttr("writes", int64(len(tx.order)))
	if len(order) > 1 {
		sp.SetAttr("cross_shard", true)
	}
	tx.seat.span = sp
	return order, nil
}

// settle records a member's commit outcome and closes its commit span.
func (tx *Tx) settle(err error) {
	tx.seat.result = err
	tx.seat.span.SetError(err)
	tx.seat.span.End()
}

// commitEpoch is the commit pipeline. Producers — Tx.Commit (through the
// shard queue, or directly for a cross-shard transaction) and CommitBatch
// — hand it transactions that passed precommit and whose endMu they
// hold, with order, the ascending union of the members' shard lock sets.
// Every member's outcome is delivered through settle.
//
// Sharding: only the commit locks of the shards in order are taken, and
// the undo log is the lane of the lowest one. Because every persistent
// range written belongs to a held shard, concurrent epochs on disjoint
// shards write disjoint ranges into distinct lanes, and crash rollback
// of the lanes is order-independent. Commit order within a shard is
// serialized by its lock. Serializability does not depend on the lock
// scope — MVTO's timestamp protocol provides it — so the global commit
// watermark (the clock) needs no extra publication step.
//
// Epochs never abort for capacity reasons: members are cut into groups
// sized to the lane up front (the estimate is conservative but
// approximate), and a group that still overflows the lane is halved and
// retried. Members are only aborted when they could not commit alone.
func (e *Engine) commitEpoch(order []int, members []*Tx) {
	lane := e.shards[order[0]].lane
	budget := e.laneBudget(lane)
	for len(members) > 0 {
		n, cost := 1, estimateUndo(members[0])
		for ; n < len(members); n++ {
			c := estimateUndo(members[n])
			if cost+c > budget {
				break
			}
			cost += c
		}
		err := e.persistGroup(order, lane, members[:n])
		for n > 1 && errors.Is(err, pmemobj.ErrLogFull) {
			n /= 2
			err = e.persistGroup(order, lane, members[:n])
		}
		if n < len(members) {
			e.epochSplits.Add(1)
		}
		if err != nil {
			// The lane transaction rolled back all persistent changes;
			// the volatile free lists may hold stale hints, which inserts
			// prune against the bitmaps. Abort the members fully (the
			// shard locks are released: the abort re-acquires them to
			// release inserted slots).
			err = fmt.Errorf("core: commit failed: %w", err)
			for _, tx := range members[:n] {
				tx.setAbortReason(AbortCommitFailed)
				_ = tx.abortLocked()
				tx.settle(err)
			}
		}
		members = members[n:]
	}
}

// persistGroup runs the four commit steps for one lane-sized group:
//
//  1. A superseded committed version is pushed into its DRAM version
//     chain, so that an older reader keeps a consistent view after the
//     PMem record is overwritten — but only if such a reader can exist:
//     some active transaction outside the group is older than the member.
//     Dirty versions never enter a chain; they live in the write set.
//  2. All record rewrites, property-chain writes and slot releases run in
//     a single pmemobj undo-log transaction, so the whole group is
//     failure-atomic (DG4; the paper's PMDK-based approach). Every range
//     it writes over a prior image — inserted records' bitmap words and
//     the reserved property slots' included — is planned up front and
//     snapshotted behind one publication fence.
//  3. Records are unlocked with single 8-byte stores after the commit
//     point, flushed but not fenced: a crash that loses a release leaves
//     a stale lock that recovery clears.
//  4. Secondary indexes are updated (still under the shard locks, so
//     per-shard index updates observe commit order) and
//     transaction-level GC is queued.
//
// On success every member is finished and settled. On failure nothing of
// the group persisted, the shard locks are released and the members are
// untouched, so the caller may retry them in smaller groups.
func (e *Engine) persistGroup(order []int, lane int, members []*Tx) error {
	e.lockShards(order, members)
	locked := true
	defer func() {
		if locked {
			e.unlockShards(order)
		}
	}()

	// Step 1. The horizon is the oldest active transaction outside the
	// group, computed once and only if some member supersedes a version.
	// A reader missing from minActive's scan has finished, or draws an id
	// above the clock, which is at least every member's id; the members
	// have finished reading. So when no outsider is older than a member,
	// nobody can read what the member supersedes, and it retains nothing.
	var horizon uint64 // 0: not computed
	for _, tx := range members {
		for _, key := range tx.order {
			d := tx.dirty[key]
			if !d.supersedes() {
				continue
			}
			if horizon == 0 {
				horizon = e.minActive(members)
			}
			if horizon >= tx.id {
				break
			}
			e.retain(d, tx.id)
		}
	}

	// Step 2. The persist span hangs off the first traced member.
	var traced *trace.Span
	for _, tx := range members {
		if traced = tx.seat.span; traced != nil {
			break
		}
	}
	psp := traced.Child("pmem.persist", trace.KindPMem)
	var preDev pmem.StatsSnapshot
	if psp != nil {
		preDev = e.dev.Stats.Snapshot()
	}
	// The plan reserves the group's property slots under the shard locks;
	// a shard short of them gets capacity outside every commit lock
	// (chunk appends mutate global allocator state) before the plan is
	// made again.
	plan := &e.shards[order[0]].plan
	retries := 0
	err := e.planGroup(plan, order, members)
	for errors.Is(err, storage.ErrShardFull) {
		e.unlockShards(order)
		locked = false
		err = e.reserveProps(members)
		e.lockShards(order, members)
		locked = true
		if err == nil {
			err = e.planGroup(plan, order, members)
		}
		retries++
	}
	if err == nil {
		err = e.pool.RunTxLane(lane, func(ptx *pmemobj.Tx) error {
			if err := ptx.SnapshotAll(plan.ranges); err != nil {
				return err
			}
			slots := plan.props
			for _, tx := range members {
				for _, key := range tx.order {
					if err := tx.applyDirty(ptx, tx.dirty[key], &slots); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if retries > 0 {
		psp.SetAttr("shard_full_retries", int64(retries))
	}
	if err != nil {
		for _, tx := range members {
			for _, key := range tx.order {
				if horizon < tx.id && tx.dirty[key].supersedes() {
					e.shard(key).chains[key.kind].remove(key.id, tx.id)
				}
			}
		}
		e.unlockShards(order)
		locked = false
		psp.SetError(err)
		psp.End()
		return err
	}

	// Step 3. The commit point has passed; each release is one 8-byte
	// store (txn-id is field 0 of both record types), and none is fenced.
	for _, tx := range members {
		for _, key := range tx.order {
			e.unlock(tx.recordOffset(key))
		}
	}
	if psp != nil {
		// The device delta over-attributes under concurrency (epochs on
		// other shards share the device); it is a locality signal, not an
		// exact charge.
		d := e.dev.Stats.Snapshot().Sub(preDev)
		psp.SetAttr("line_flushes", int64(d.LineFlushes))
		psp.SetAttr("block_writes", int64(d.BlockWrites))
		psp.SetAttr("drains", int64(d.Drains))
	}
	psp.End()

	// Step 4.
	for _, tx := range members {
		tx.updateIndexes()
		tx.enqueueGC()
	}
	for _, s := range order {
		e.shards[s].commits.Add(uint64(len(members)))
	}
	if len(order) > 1 {
		e.crossCommits.Add(uint64(len(members)))
	}
	e.epochs.Add(1)
	e.epochMembers.Add(uint64(len(members)))
	e.unlockShards(order)
	locked = false
	for _, tx := range members {
		e.tel.TxCommits.Inc()
		tx.finish()
		tx.seat.span.SetAttr("epoch_members", int64(len(members)))
		tx.settle(nil)
	}
	return nil
}

// reserveProps grows the property table so that every shard can take the
// property records the members' commits will insert — the capacity to
// reserve before retrying after ErrShardFull. Shards are visited in
// ascending order, so the device-event sequence is deterministic for
// crash-point replay.
func (e *Engine) reserveProps(members []*Tx) error {
	needs := make([]int, e.nShards)
	for _, tx := range members {
		for _, key := range tx.order {
			d := tx.dirty[key]
			if !d.isDelete && d.propsChanged {
				needs[e.shardOf(key)] += storage.PropRecords(len(d.ver.props))
			}
		}
	}
	for s, n := range needs {
		if n == 0 {
			continue
		}
		if err := e.props.EnsureShardFreeN(s, n); err != nil {
			return err
		}
	}
	return nil
}

// oldPropHead returns the head of the committed property chain the dirty
// object supersedes.
func (d *dirtyObj) oldPropHead() uint64 { return d.old.hdr(d.key.kind).props }

// supersedes reports whether committing d replaces a committed version
// that an older reader could only find in a chain. Deletes keep serving
// old readers from the PMem record itself, whose window just gets closed.
func (d *dirtyObj) supersedes() bool { return d.hasOld && !d.isDelete }

// retain pushes the committed version d supersedes, closed at ets (the
// committer's id), into its chain and lists it for GC on the record's
// shard. Caller holds that shard's commit lock.
func (e *Engine) retain(d *dirtyObj, ets uint64) {
	v := versionOf(d.key.kind, &d.old, d.oldProps)
	v.bts, v.ets = d.old.hdr(d.key.kind).bts, ets
	sh := e.shard(d.key)
	sh.chains[d.key.kind].push(d.key.id, v)
	sh.gcMu.Lock()
	sh.retained = append(sh.retained, retainedVer{d.key, ets})
	sh.gcPending.Add(1)
	sh.gcMu.Unlock()
}

func (tx *Tx) recordOffset(key objKey) uint64 {
	off, ok := tx.e.tables[key.kind].RecordOffset(key.id)
	if !ok {
		panic(fmt.Sprintf("core: dirty %v %d has no record", key.kind, key.id))
	}
	return off
}

// applyDirty writes one dirty object into PMem within the commit
// transaction. The record's txn-id word keeps the lock until after the
// commit point. New property records take the next slots of the group's
// reservation (planGroup), in the dirty object's shard, so the commit
// lane only ever covers held shards.
func (tx *Tx) applyDirty(ptx *pmemobj.Tx, d *dirtyObj, slots *[]uint64) error {
	e := tx.e
	off := tx.recordOffset(d.key)
	if err := ptx.Snapshot(off, e.tables[d.key.kind].RecordSize()); err != nil {
		return err
	}

	switch {
	case d.isDelete:
		// Close the validity window (the header of either kind); content
		// and properties stay for old readers until GC reclaims the slot.
		e.dev.WriteU64(off+storage.NEts, tx.id)
		flags := e.dev.ReadU32(off + storage.NFlags)
		e.dev.WriteU32(off+storage.NFlags, flags|storage.FlagTombstone)
		return nil

	default:
		// Insert or update: replace the record content and, if they
		// changed, the properties. Adjacency-only updates keep the
		// committed property chain (DG1).
		head := d.oldPropHead()
		if d.propsChanged {
			if d.hasOld {
				if err := storage.FreePropChainTx(ptx, e.props, head); err != nil {
					return err
				}
			}
			n := storage.PropRecords(len(d.ver.props))
			var err error
			head, err = storage.WritePropChainAtTx(ptx, e.props, d.key.id, d.ver.props, (*slots)[:n])
			if err != nil {
				return err
			}
			*slots = (*slots)[n:]
		}
		// The version's typed record, still locked until step 3.
		if d.key.kind == kindNode {
			rec := *d.ver.node
			rec.TxnID, rec.Bts, rec.Ets, rec.Props = tx.id, tx.id, Infinity, head
			storage.WriteNodeRec(e.dev, off, &rec)
		} else {
			rec := *d.ver.rel
			rec.TxnID, rec.Bts, rec.Ets, rec.Props = tx.id, tx.id, Infinity, head
			storage.WriteRelRec(e.dev, off, &rec)
		}
		return nil
	}
}

// Abort rolls the transaction back (§5.1): the write set (and with it
// every dirty version) is discarded, write locks released, and slots of
// uncommitted inserts reclaimed.
func (tx *Tx) Abort() error {
	tx.endMu.Lock()
	defer tx.endMu.Unlock()
	return tx.abortLocked()
}

func (tx *Tx) abortLocked() error {
	if tx.done.Load() {
		return ErrTxDone
	}
	e := tx.e
	// Count the abort once, with its first-recorded classification. A
	// reasonless rollback of a read-only transaction is normal query
	// cleanup, not an abort.
	if r := tx.abortReason.Load(); r != 0 {
		e.tel.TxAborts[AbortReason(r-1)].Inc()
	} else if len(tx.order) > 0 {
		e.tel.TxAborts[AbortExplicit].Inc()
	}
	for i := len(tx.order) - 1; i >= 0; i-- {
		d := tx.dirty[tx.order[i]]
		if d.isInsert {
			// The slot was persistently allocated at operation time; give
			// it back on its shard's lane, under the shard's commit lock,
			// so the release cannot overlap a concurrent commit's undo
			// log. Readers always saw the record locked, so nobody can
			// hold a reference.
			err := e.runOnShardLane(e.shardOf(d.key), func(ptx *pmemobj.Tx) error {
				e.labels[d.key.kind].clear(d.key.id)
				return e.tables[d.key.kind].ReleaseTx(ptx, d.key.id)
			})
			if err != nil {
				return fmt.Errorf("core: abort: release %v %d: %w", d.key.kind, d.key.id, err)
			}
			continue
		}
		e.unlock(tx.recordOffset(d.key))
	}
	tx.finish()
	return nil
}

// --- secondary index maintenance ---

// updateIndexes applies the committed changes to every matching
// (label, property) index. Runs under the commit locks of the involved
// shards; a node's entries live in its own shard's trees, so each update
// only touches held shards.
func (tx *Tx) updateIndexes() {
	e := tx.e
	for _, key := range tx.order {
		d := tx.dirty[key]
		if d.key.kind != kindNode {
			continue
		}
		if !d.propsChanged && !d.isDelete && d.hasOld && d.old.node.Label == d.ver.node.Label {
			continue // adjacency-only update: index entries unchanged
		}
		sh := &e.shards[e.shardOf(d.key)]
		sh.idxMu.RLock()
		if len(sh.indexes) == 0 {
			sh.idxMu.RUnlock()
			continue
		}
		// Deleted nodes keep their index entries until GC reclaims the
		// slot: older snapshots may still reach them through the index,
		// and newer readers re-validate against their snapshot anyway.
		if d.hasOld && !d.isDelete {
			for _, p := range d.oldProps {
				if t := sh.indexes[indexKey{d.old.node.Label, p.Key}]; t != nil {
					t.Delete(p.Val, d.key.id)
				}
			}
		}
		if !d.isDelete {
			for _, p := range d.ver.props {
				if t := sh.indexes[indexKey{d.ver.node.Label, p.Key}]; t != nil {
					if err := t.Insert(p.Val, d.key.id); err != nil {
						// Index degradation is survivable: it is a secondary
						// structure; queries fall back to scans if dropped.
						continue
					}
				}
			}
		}
		sh.idxMu.RUnlock()
	}
}

// --- transaction-level garbage collection (§5.3) ---

// enqueueGC records the committed deletions for later physical
// reclamation.
func (tx *Tx) enqueueGC() {
	for _, key := range tx.order {
		if tx.dirty[key].isDelete {
			tx.e.enqueueReclaim(key)
		}
	}
}

// enqueueReclaim puts a committed deletion on its own shard's queue.
func (e *Engine) enqueueReclaim(key objKey) {
	sh := &e.shards[e.shardOf(key)]
	sh.gcMu.Lock()
	sh.gcQueue = append(sh.gcQueue, key)
	sh.gcPending.Add(1)
	sh.gcMu.Unlock()
}

// runGC is transaction-level garbage collection (§5.3), run at every
// transaction end and in proportion to what commits left behind: each
// shard lists the versions its commits retained, those are pruned against
// the oldest active timestamp, and a chain the pruning empties is dropped.
// A shard with nothing listed costs one atomic load. Physical slot
// reclamation (bitmap-free, DG5) runs only in quiescent moments, when no
// transaction can be traversing the records, and under every shard's
// commit lock, because unlinking a relationship rewrites next-pointers of
// records in arbitrary shards.
func (e *Engine) runGC() {
	var minActive uint64 // 0: not computed
	reclaim := false
	for i := range e.shards {
		sh := &e.shards[i]
		if sh.gcPending.Load() == 0 {
			continue
		}
		sh.gcMu.Lock()
		if len(sh.retained) > 0 && minActive == 0 {
			minActive = e.minActive(nil)
		}
		sh.retained = slices.DeleteFunc(sh.retained, func(r retainedVer) bool {
			if r.ets > minActive {
				return false
			}
			e.shard(r.key).chains[r.key.kind].prune(r.key.id, minActive)
			return true
		})
		reclaim = reclaim || len(sh.gcQueue) > 0
		sh.gcPending.Store(int64(len(sh.retained) + len(sh.gcQueue)))
		sh.gcMu.Unlock()
	}
	if !reclaim || e.ActiveTxs() > 0 {
		return
	}
	var queue []objKey
	for i := range e.shards {
		sh := &e.shards[i]
		sh.gcMu.Lock()
		queue = append(queue, sh.gcQueue...)
		sh.gcQueue = nil
		sh.gcPending.Store(int64(len(sh.retained)))
		sh.gcMu.Unlock()
	}
	if len(queue) == 0 {
		return
	}
	// Every deletion taken committed before this point. If no transaction
	// is active now — counting the Begins between their clock draw and
	// their registration, which quiescent waits out — every later one
	// draws a timestamp above those commits and cannot see the deleted
	// versions. Otherwise a transaction that began after the check above
	// may be older than one of them: they wait for a later pass.
	if !e.quiescent() {
		for _, key := range queue {
			e.enqueueReclaim(key)
		}
		return
	}
	e.lockAllShards()
	defer e.unlockAllShards()
	// Relationships first, then nodes, so unlinking still finds the
	// endpoint records in place.
	for _, k := range [...]objKind{kindRel, kindNode} {
		for _, key := range queue {
			if key.kind == k {
				e.reclaim(key)
			}
		}
	}
}

// reclaim physically removes a tombstoned record, releasing its slot and
// property records — one step for both kinds, but for what each kind
// keeps elsewhere: a relationship is first unlinked from both adjacency
// lists, a node's (deferred) secondary-index entries are dropped. Caller
// holds every shard commit lock, so the built-in undo log cannot overlap
// any lane.
//
//poseidonlint:ignore seqlock caller holds every shard commitMu (reclaim runs inside lockAllShards), so no writer can race these reads
func (e *Engine) reclaim(key objKey) {
	tbl, id := e.tables[key.kind], key.id
	off, ok := tbl.RecordOffset(id)
	if !ok || !tbl.Occupied(id) {
		return
	}
	var r record
	if key.kind == kindNode {
		r.node = storage.ReadNodeRec(e.dev, off)
	} else {
		r.rel = storage.ReadRelRec(e.dev, off)
	}
	h := r.hdr(key.kind)
	if h.flags&storage.FlagTombstone == 0 {
		return
	}
	sh := e.shard(key)
	if key.kind == kindRel {
		e.unlinkRel(id, r.rel.Src, r.rel.NextSrc, true)
		e.unlinkRel(id, r.rel.Dst, r.rel.NextDst, false)
	} else {
		sh.idxMu.RLock()
		if len(sh.indexes) > 0 {
			for _, p := range storage.ReadPropChain(e.props, h.props) {
				if t := sh.indexes[indexKey{h.label, p.Key}]; t != nil {
					t.Delete(p.Val, id)
				}
			}
		}
		sh.idxMu.RUnlock()
	}
	e.labels[key.kind].clear(id)
	err := e.pool.RunTx(func(ptx *pmemobj.Tx) error {
		if err := storage.FreePropChainTx(ptx, e.props, h.props); err != nil {
			return err
		}
		return tbl.ReleaseTx(ptx, id)
	})
	if err != nil {
		tbl.ResyncVolatile()
		e.props.ResyncVolatile()
		return
	}
	sh.rts[key.kind].forget(id)
}

// unlinkRel removes relationship id from one adjacency list of node n.
// The rewritten next-pointers are plain 8-byte failure-atomic stores:
// every intermediate state yields the same visible relationship set.
func (e *Engine) unlinkRel(id, nodeID, next uint64, out bool) {
	nodes, rels := e.tables[kindNode], e.tables[kindRel]
	nodeOff, ok := nodes.RecordOffset(nodeID)
	if !ok || !nodes.Occupied(nodeID) {
		return
	}
	headField := nodeOff + storage.NOut
	nextField := uint64(storage.RNextSrc)
	if !out {
		headField = nodeOff + storage.NIn
		nextField = storage.RNextDst
	}
	cur := e.dev.ReadU64(headField)
	if cur == id {
		e.dev.WriteU64(headField, next)
		e.dev.Persist(headField, 8)
		return
	}
	for cur != storage.NilID {
		curOff, ok := rels.RecordOffset(cur)
		if !ok || !rels.Occupied(cur) {
			return
		}
		n := e.dev.ReadU64(curOff + nextField)
		if n == id {
			e.dev.WriteU64(curOff+nextField, next)
			e.dev.Persist(curOff+nextField, 8)
			return
		}
		cur = n
	}
}
