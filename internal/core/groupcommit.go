package core

import (
	"slices"
	"sync"
	"time"

	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
	"poseidon/internal/trace"
)

// Commit-epoch producers and lane sizing. The pipeline itself is
// commitEpoch (commit.go); this file holds what feeds it: the per-shard
// queue behind Tx.Commit, the deterministic CommitBatch entry point, and
// the undo-lane arithmetic epochs are sized with.
//
// The queue batches concurrent single-shard committers: a committer that
// finds its shard's queue leaderless leads one epoch — itself plus
// whoever queued behind it while it waited for the shard lock, up to
// maxEpochMembers — persists the batch behind one publication fence and
// one lane commit, releases the members' locks with unfenced stores,
// then wakes the members.
// Committers arriving while an epoch persists park and form the next
// epoch; batching comes purely from that backpressure, so an uncontended
// committer pays for an epoch of one and nothing else. A leader runs
// exactly one epoch, its own: leadership then passes to the committer at
// the head of the queue, so no caller's commit latency exceeds its own
// epoch and every epoch runs on a goroutine that is waiting for it.

// maxEpochMembers bounds the transactions one queued epoch commits
// together.
const maxEpochMembers = 32

// epochQueue is one shard's commit queue.
type epochQueue struct {
	mu      sync.Mutex
	pending []*Tx
	// leading is true while some committer owns the queue; every other
	// committer parks on its seat until it is handed a result or the
	// leadership.
	leading bool
	// batch is the running epoch's member list, owned by the current
	// leader and reused across epochs.
	batch []*Tx
}

// commitSeat is a transaction's place in a commit epoch. It lives in the
// Tx, so joining an epoch allocates nothing.
type commitSeat struct {
	span   *trace.Span // the transaction's core.commit span (nil untraced)
	result error
	// wake parks a queued follower; the leader releases it exactly once,
	// with either the result or (leads set) the queue's leadership.
	wake  sync.WaitGroup
	leads bool
	// panicked holds the value the epoch's leader panicked with mid-commit
	// (an injected power failure, or a bug). The follower re-raises it, so
	// the panic unwinds every member's caller exactly as it unwinds the
	// leader's instead of leaving them parked forever.
	panicked any
	queued   time.Time // when a traced transaction joined the queue
}

// commitQueued commits a single-shard transaction through its shard's
// queue; order is its one-element lock set. Caller holds tx.endMu and ran
// precommit.
func (tx *Tx) commitQueued(order []int) error {
	q := &tx.e.shards[order[0]].queue
	if tx.seat.span != nil {
		tx.seat.queued = time.Now()
	}
	q.mu.Lock()
	lead := !q.leading
	if lead {
		q.leading = true
	} else {
		tx.seat.wake.Add(1)
	}
	q.pending = append(q.pending, tx)
	q.mu.Unlock()
	if !lead {
		tx.seat.wake.Wait()
		lead = tx.seat.leads
	}
	if lead {
		tx.e.leadEpoch(order)
	}
	if tx.seat.panicked != nil {
		panic(tx.seat.panicked)
	}
	return tx.seat.result
}

// leadEpoch commits one epoch from the head of the queue of the shard in
// order — the caller's own transaction is its first member — then wakes
// the followers and passes the leadership on.
func (e *Engine) leadEpoch(order []int) {
	q := &e.shards[order[0]].queue
	q.mu.Lock()
	n := min(len(q.pending), maxEpochMembers)
	batch := append(q.batch[:0], q.pending[:n]...)
	q.pending = q.pending[:copy(q.pending, q.pending[n:])]
	q.mu.Unlock()
	for _, tx := range batch {
		if tx.seat.span != nil {
			tx.seat.span.SetAttr("queue_wait_ns", time.Since(tx.seat.queued).Nanoseconds())
		}
	}
	defer func() {
		r := recover()
		for _, tx := range batch[1:] {
			tx.seat.panicked = r
			tx.seat.wake.Done()
		}
		q.mu.Lock()
		q.batch = batch
		if len(q.pending) > 0 {
			q.pending[0].seat.leads = true
			q.pending[0].seat.wake.Done()
		} else {
			q.leading = false
		}
		q.mu.Unlock()
		if r != nil {
			panic(r)
		}
	}()
	e.commitEpoch(order, batch)
}

// CommitBatch commits the given transactions as commit epochs without
// going through the queues: single-shard transactions form one epoch per
// shard (committed in ascending shard order), cross-shard ones an epoch
// of one each. The caller must own every transaction and not use them
// concurrently. Returns one result per transaction, in input order.
//
// This is the deterministic entry point: bulk loaders use it to form
// epochs without relying on scheduler-dependent queue contention, and
// the crash-point explorer uses it to get a replayable device-event
// sequence through the epoch machinery.
func (e *Engine) CommitBatch(txs []*Tx) []error {
	errs := make([]error, len(txs))
	byShard := make([][]*Tx, e.nShards)
	var seated []int // indices of the members of byShard, endMu held
	for i, tx := range txs {
		tx.endMu.Lock()
		order, err := tx.precommit()
		switch {
		case order == nil:
			errs[i] = err
		case len(order) > 1:
			e.commitEpoch(order, []*Tx{tx})
			errs[i] = tx.seat.result
		default:
			byShard[order[0]] = append(byShard[order[0]], tx)
			seated = append(seated, i)
			continue
		}
		tx.endMu.Unlock()
	}
	for s, members := range byShard {
		if len(members) > 0 {
			e.commitEpoch([]int{s}, members)
		}
	}
	for _, i := range seated {
		errs[i] = txs[i].seat.result
		txs[i].endMu.Unlock()
	}
	return errs
}

// laneBudget returns the undo-log bytes an epoch may plan to use on the
// lane: its capacity minus the header, with a safety margin for
// allocator metadata the estimate cannot see.
func (e *Engine) laneBudget(lane int) uint64 {
	laneCap := e.pool.LaneCap(lane)
	if laneCap <= pmemobj.LogHeaderBytes {
		return 1
	}
	return (laneCap - pmemobj.LogHeaderBytes) * 7 / 8
}

// estimateUndo approximates the undo-log bytes committing tx consumes:
// one record snapshot per dirty object and a bitmap-word snapshot per
// inserted one, a record+bitmap-word snapshot per freed old property
// record, and a bitmap-word snapshot per new property record. Coverage
// dedup only shrinks the real usage, so the estimate errs high.
func estimateUndo(tx *Tx) uint64 {
	total := uint64(512)
	for _, key := range tx.order {
		d := tx.dirty[key]
		total += pmemobj.SnapshotCost(tx.e.tables[key.kind].RecordSize())
		if d.isInsert {
			total += pmemobj.SnapshotCost(8)
		}
		if d.isDelete || !d.propsChanged {
			continue
		}
		if d.hasOld {
			total += uint64(storage.PropRecords(len(d.oldProps))) * (pmemobj.SnapshotCost(storage.PropRecordSize) + pmemobj.SnapshotCost(8))
		}
		total += uint64(storage.PropRecords(len(d.ver.props))) * pmemobj.SnapshotCost(8)
	}
	return total
}

// epochPlan is what a group's commit settles before its lane
// transaction starts: every persistent range the group writes over a
// prior image, so one SnapshotAll publishes all their undo entries behind
// a single fence, and the property slots its new chains take, reserved
// in the order applyDirty consumes them.
type epochPlan struct {
	ranges []pmemobj.Range
	props  []uint64
	// Per shard of the group's lock set: the property records its
	// chains need, then the cursor into free, the slots reserved for them.
	need []int
	free []uint64
}

// planGroup fills p for members, whose ascending shard lock set is
// order: each dirty record; an inserted record's occupancy-bitmap word,
// whose bit the insert set at op time and the commit makes durable; the
// old property records an update frees, with their bitmap words; and for
// every new property chain, free slots of the owner's shard and their
// bitmap words. applyDirty's own Snapshot calls then all dedup against
// the coverage. Caller holds the shard locks, which keep the reserved
// slots free until the lane transaction takes them. Fails with
// storage.ErrShardFull when a shard lacks the slots.
func (e *Engine) planGroup(p *epochPlan, order []int, members []*Tx) error {
	p.need = append(p.need[:0], make([]int, len(order))...)
	for _, tx := range members {
		for _, key := range tx.order {
			if d := tx.dirty[key]; !d.isDelete && d.propsChanged {
				p.need[slices.Index(order, e.shardOf(key))] += storage.PropRecords(len(d.ver.props))
			}
		}
	}
	p.free = p.free[:0]
	for i, s := range order {
		n := p.need[i]
		p.need[i] = len(p.free) // from here on, shard i's cursor into free
		var err error
		if p.free, err = e.props.FreeSlots(p.free, s, n); err != nil {
			return err
		}
	}

	p.ranges, p.props = p.ranges[:0], p.props[:0]
	for _, tx := range members {
		for _, key := range tx.order {
			d := tx.dirty[key]
			tbl := e.tables[key.kind]
			p.ranges = append(p.ranges, pmemobj.Range{Off: tx.recordOffset(key), N: tbl.RecordSize()})
			if d.isInsert && !mutateInsertBit() {
				if w, ok := tbl.BitmapWordOff(key.id); ok {
					p.ranges = append(p.ranges, pmemobj.Range{Off: w, N: 8})
				}
			}
			if d.isDelete || !d.propsChanged {
				continue
			}
			if d.hasOld {
				for id := d.oldPropHead(); id != storage.NilID; {
					poff, ok := e.props.RecordOffset(id)
					if !ok {
						break
					}
					p.ranges = append(p.ranges, pmemobj.Range{Off: poff, N: storage.PropRecordSize})
					if w, ok := e.props.BitmapWordOff(id); ok {
						p.ranges = append(p.ranges, pmemobj.Range{Off: w, N: 8})
					}
					id = e.dev.ReadU64(poff + storage.PNext)
				}
			}
			i := slices.Index(order, e.shardOf(key))
			n := storage.PropRecords(len(d.ver.props))
			for _, id := range p.free[p.need[i] : p.need[i]+n] {
				p.props = append(p.props, id)
				if w, ok := e.props.BitmapWordOff(id); ok {
					p.ranges = append(p.ranges, pmemobj.Range{Off: w, N: 8})
				}
			}
			p.need[i] += n
		}
	}
	return nil
}
