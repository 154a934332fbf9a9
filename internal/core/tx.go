package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"poseidon/internal/dict"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// Tx is an MVTO transaction (§5.1). The transaction identifier doubles as
// its timestamp. All uncommitted state lives in DRAM (§5.2): a write
// creates a dirty version in the transaction's write set and only commit
// persists it to PMem, inside a single pmemobj transaction (DG4).
//
// A Tx must be used from a single goroutine; different transactions may
// run concurrently.
type Tx struct {
	e  *Engine
	id uint64

	// done is atomic and endMu serializes Commit/Abort so that parallel
	// read workers sharing the transaction can trigger an abort safely.
	done  atomic.Bool
	endMu sync.Mutex

	// refused marks a transaction Begin declined to start because a bulk
	// loader is open: it is born done and every call fails with
	// ErrBulkLoad. (A bool in the padding after endMu: Tx does not grow.)
	refused bool

	// ctx, when non-nil, is consulted by every operation: once it is
	// cancelled the transaction aborts itself and all subsequent calls
	// return the context's error. It is set via WithContext before any
	// parallel workers start and never mutated while they run.
	ctx context.Context

	// abortReason holds AbortReason+1 (0 = unset). Atomic with a CAS so
	// that when parallel morsel workers sharing the transaction race to
	// abort it, the first failure's classification wins.
	abortReason atomic.Uint32

	dirty map[objKey]*dirtyObj
	order []objKey // deterministic commit order

	seat commitSeat // set by precommit, used by the commit epoch
}

// maxPropWalk bounds the property-chain walk of a concurrent read: a
// torn walk over records being recycled underneath the reader could
// otherwise follow a pointer cycle forever. No legitimate chain comes
// anywhere near this many records, and a bounded result is discarded by
// the read's stability bracket.
const maxPropWalk = 1 << 20

// dirtyObj tracks one object written by the transaction.
type dirtyObj struct {
	key      objKey
	ver      *version // DRAM dirty version, seen by this transaction only
	isInsert bool
	isDelete bool
	// propsChanged records whether the property set differs from the
	// committed version; adjacency-only updates (the common CreateRel
	// path) keep the existing property chain in place at commit (DG1:
	// algorithmically save writes).
	propsChanged bool

	// Committed pre-image captured at lock time (updates/deletes only).
	hasOld   bool
	oldNode  storage.NodeRec
	oldRel   storage.RelRec
	oldProps []storage.Prop
}

// Begin starts a transaction, drawing the next timestamp from the global
// clock. The transaction is registered with its home shard's active set.
// Draw and registration happen under beginMu's read side so a concurrent
// GC pass cannot compute a minActive past the new id (see minActive).
// While a BulkLoader is open the returned transaction is already finished
// and every call on it fails with ErrBulkLoad.
func (e *Engine) Begin() *Tx {
	e.beginMu.RLock()
	if e.bulkLoading.Load() {
		e.beginMu.RUnlock()
		tx := &Tx{e: e, refused: true}
		tx.done.Store(true)
		return tx
	}
	id := e.clock.Add(1)
	sh := &e.shards[e.homeShard(id)]
	sh.activeMu.Lock()
	sh.active[id] = struct{}{}
	sh.activeMu.Unlock()
	e.beginMu.RUnlock()
	e.tel.TxBegun.Inc()
	return &Tx{e: e, id: id}
}

// Per-id accessors for the sharded MVTO state.
func (e *Engine) nodeChainsOf(id uint64) *chainTable {
	return e.shards[e.nodes.ShardOf(id)].nodeChains
}
func (e *Engine) relChainsOf(id uint64) *chainTable {
	return e.shards[e.rels.ShardOf(id)].relChains
}
func (e *Engine) nodeRTSOf(id uint64) *rtsTable { return e.shards[e.nodes.ShardOf(id)].nodeRTS }
func (e *Engine) relRTSOf(id uint64) *rtsTable  { return e.shards[e.rels.ShardOf(id)].relRTS }

// place stores a new record in a free slot of tbl owned by shard s and
// returns the slot's id (§5.1: the record goes into the persistent array
// at once and stays write-locked, bts = 0, until commit). write stores
// the record, lock word included, at off.
//
// Nothing here is durable and no undo entry is written: the commit
// snapshots the record and the slot's bitmap word behind its one
// publication fence and flushes both before its commit point, and a
// crash before then leaves an insert nobody committed, which recovery
// drops whether or not its bit or record reached media (DESIGN.md "When
// an insert becomes durable"). The record is written before its bit is
// set, so a reader never finds an occupied slot without the locked
// record. The
// slot is taken under the shard's commit lock: a commit's online
// rollback rewrites the shard's bitmap words from their undo images and
// must not lose a bit set meanwhile. A shard without a free slot gets
// capacity outside the lock — chunk appends mutate global allocator
// state — and the take is retried.
func (e *Engine) place(tbl *storage.Table, s int, write func(off uint64)) (uint64, error) {
	for {
		id, err := e.placeInShard(tbl, s, write)
		if !errors.Is(err, storage.ErrShardFull) {
			return id, err
		}
		if err := tbl.EnsureShardFree(s); err != nil {
			return 0, err
		}
	}
}

// placeInShard is one attempt of place under shard s's commit lock.
//
//pmem:deferred-flush the inserting commit snapshots the record and its bitmap word and flushes both before its commit point
func (e *Engine) placeInShard(tbl *storage.Table, s int, write func(off uint64)) (uint64, error) {
	sh := &e.shards[s]
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	var one [1]uint64
	ids, err := tbl.FreeSlots(one[:0], s, 1)
	if err != nil {
		return 0, err
	}
	id := ids[0]
	off, _ := tbl.RecordOffset(id)
	write(off)
	word, err := tbl.Occupy(id)
	if err != nil {
		return 0, err
	}
	if e.dev.StrictFlush() {
		// The strict checker takes a stored line that a later fence finds
		// unflushed for one a crash would silently lose, and a reader of
		// it for a reader acting on lost data. These lines may be lost:
		// write them back, still without a fence, so it checks the rest.
		e.dev.Flush(off, tbl.RecordSize())
		e.dev.Flush(word, 8)
	}
	return id, nil
}

// unlock releases the write lock whose lock word is at off with one
// 8-byte store, flushed and never fenced: a release a crash loses is a
// stale lock on committed data, which recoverRecords clears.
func (e *Engine) unlock(off uint64) {
	e.dev.WriteU64(off, 0)
	e.dev.Flush(off, 8)
}

// runOnShardLane runs fn as a transaction on shard s's undo-log lane
// under the shard's commit lock. The lock is released by defer: an
// injected power failure panics out of the lane transaction, and the
// other committers of a crash-under-stress run must not block on it.
func (e *Engine) runOnShardLane(s int, fn func(*pmemobj.Tx) error) error {
	sh := &e.shards[s]
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	return e.pool.RunTxLane(sh.lane, fn)
}

// ID returns the transaction's timestamp identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// EngineDict exposes the engine's dictionary for label/key resolution by
// layers built on top of transactions (query engine, analytics).
func (tx *Tx) EngineDict() *dict.Dict { return tx.e.dict }

// ReadOnly reports whether the transaction has written anything yet.
func (tx *Tx) ReadOnly() bool { return len(tx.order) == 0 }

// WithContext attaches a context to the transaction and returns the
// previously attached one (nil if none). Every subsequent operation —
// reads, scans, traversals, writes, Commit — first checks the context;
// on cancellation the transaction aborts itself (discarding all dirty
// versions and releasing its write locks, so no update is half-applied)
// and the operation returns ctx.Err(). The query layers attach the
// caller's context for the duration of one execution; parallel scan
// workers inherit it through the shared transaction.
//
// WithContext must not be called while another goroutine is using the
// transaction.
func (tx *Tx) WithContext(ctx context.Context) context.Context {
	prev := tx.ctx
	tx.ctx = ctx
	return prev
}

// Context returns the attached context (nil if none).
func (tx *Tx) Context() context.Context { return tx.ctx }

// ctxErr reports the attached context's error without side effects.
func (tx *Tx) ctxErr() error {
	if tx.ctx == nil {
		return nil
	}
	return tx.ctx.Err()
}

// doneErr is what a finished transaction answers: ErrTxDone, or the
// reason Begin refused to start it.
func (tx *Tx) doneErr() error {
	if tx.refused {
		return ErrBulkLoad
	}
	return ErrTxDone
}

func (tx *Tx) check() error {
	if tx.done.Load() {
		return tx.doneErr()
	}
	if err := tx.ctxErr(); err != nil {
		tx.setAbortReason(AbortCancelled)
		tx.mustAbort()
		return err
	}
	return nil
}

// setAbortReason records why the transaction is aborting; the first
// recorded reason wins (parallel workers may race here).
func (tx *Tx) setAbortReason(r AbortReason) {
	tx.abortReason.CompareAndSwap(0, uint32(r)+1)
}

// fail classifies the failure, aborts the transaction and returns the
// abort error — the single exit for every MVTO protocol violation.
func (tx *Tx) fail(reason AbortReason, format string, args ...any) error {
	tx.setAbortReason(reason)
	tx.mustAbort()
	return abortf(reason, format, args...)
}

func (tx *Tx) finish() {
	tx.done.Store(true)
	e := tx.e
	sh := &e.shards[e.homeShard(tx.id)]
	sh.activeMu.Lock()
	delete(sh.active, tx.id)
	sh.activeMu.Unlock()
	e.runGC()
}

// --- snapshots (read views) ---

// NodeSnap is a consistent read view of a node: either the PMem-resident
// latest committed version, whose property set was captured inside the
// read's seqlock bracket, or a DRAM version from the chain. A snapshot
// stays valid for as long as it is held.
type NodeSnap struct {
	ID    uint64
	Rec   storage.NodeRec
	props []storage.Prop // captured set of a PMem-resident version, capped
	// ver is set for a DRAM version instead. A dirty version is read
	// through it, so a snapshot of an object the transaction has written
	// keeps seeing that transaction's later SetProps.
	ver *version
}

// Prop returns the value of the property with the given key code.
func (s NodeSnap) Prop(key uint32) (storage.Value, bool) { return propIn(s.Props(), key) }

// Props returns the node's full property set. The elements are shared
// with the snapshot and must not be modified; the slice is capped at its
// length, so appending to it reallocates.
func (s NodeSnap) Props() []storage.Prop {
	if s.ver != nil {
		return slices.Clip(s.ver.props)
	}
	return s.props
}

// RelSnap is a consistent read view of a relationship; see NodeSnap.
type RelSnap struct {
	ID    uint64
	Rec   storage.RelRec
	props []storage.Prop
	ver   *version
}

// Prop returns the value of the property with the given key code.
func (s RelSnap) Prop(key uint32) (storage.Value, bool) { return propIn(s.Props(), key) }

// Props returns the relationship's full property set; see NodeSnap.Props.
func (s RelSnap) Props() []storage.Prop {
	if s.ver != nil {
		return slices.Clip(s.ver.props)
	}
	return s.props
}

func propIn(props []storage.Prop, key uint32) (storage.Value, bool) {
	for _, p := range props {
		if p.Key == key {
			return p.Val, true
		}
	}
	return storage.Value{}, false
}

// errWrongLabel is readNode/readRel's answer for a visible object that
// does not carry the label the walker asked for: the returned snapshot's
// Rec is valid (adjacency walkers follow its list pointers), but its
// property chain was not read. It never leaves the package.
var errWrongLabel = errors.New("core: label mismatch")

// pointPropBuf is the stack buffer of a point read; longer property sets
// spill to the heap.
const pointPropBuf = 16

// GetNode returns the version of node id visible to the transaction
// (§5.1 read protocol): the PMem record is consulted first; if its
// validity window does not cover the transaction, the DRAM version chain
// is searched. Reading an object write-locked by another transaction
// aborts.
func (tx *Tx) GetNode(id uint64) (NodeSnap, error) {
	var buf [pointPropBuf]storage.Prop
	snap, props, err := tx.readNode(id, 0, buf[:0])
	if len(props) > 0 {
		snap.props = append(make([]storage.Prop, 0, len(props)), props...)
	}
	return snap, err
}

// GetNodeIn is GetNode keeping the property set in the caller's slab.
func (tx *Tx) GetNodeIn(id uint64, slab *PropSlab) (NodeSnap, error) {
	snap, props, err := tx.readNode(id, 0, slab.free())
	snap.props = slab.keep(props)
	return snap, err
}

// readNode is the read protocol behind GetNode and every node walker.
// label restricts it to nodes of that label code (0 = any); another
// visible node is reported as errWrongLabel. A PMem-resident version's
// property set is appended to dst and returned beside the snapshot: the
// caller decides where it lives (GetNode copies out of a stack buffer,
// walkers keep it in their slab) and stores it in the snapshot.
func (tx *Tx) readNode(id uint64, label uint32, dst []storage.Prop) (NodeSnap, []storage.Prop, error) {
	if err := tx.check(); err != nil {
		return NodeSnap{}, nil, err
	}
	if d, ok := tx.dirty[objKey{kindNode, id}]; ok {
		if d.isDelete {
			return NodeSnap{}, nil, ErrNotFound
		}
		return nodeVersionSnap(id, d.ver, label)
	}
	e := tx.e
	off, ok := e.nodes.RecordOffset(id)
	if !ok || !e.nodes.Occupied(id) {
		return NodeSnap{}, nil, ErrNotFound
	}
	// Seqlock-style stable read. The record is multi-word, so a committer
	// can rewrite it underneath us, and the lock word alone cannot detect
	// a full lock→rewrite→unlock cycle that fits inside a reader
	// preemption (it returns to zero). Bts/Ets close that hole: every
	// commit to a live slot advances one of them monotonically, and slot
	// reuse only happens via quiescent GC, which cannot run while this
	// transaction is active. The property chain must be captured inside
	// the same bracket: commits free superseded prop records eagerly (the
	// slots are zeroed and reusable), so a chain walked after the bracket
	// could dereference recycled slots. Any free of this record's chain
	// is part of a commit that also advances the record's Bts or Ets, so
	// a stable bracket proves the captured props are the committed set.
	//
	// The label test sits inside the bracket too and skips nothing but the
	// chain walk: a version the walker will drop needs no property set,
	// but it was still read, so the lock checks and the rts bump apply to
	// it whatever its label (a label taken from a torn record fails the
	// re-check like any other field). A table scan does not get here for
	// a slot its label mirror knows to hold another label: a slot's label
	// is set at create or load and never changes, and a slot is reused
	// only after GC reclaims it while no transaction is active or an
	// uncommitted insert aborts, so no version a reader may see carries
	// another label than the slot. The scan's result does not depend on
	// that record, and it takes neither the lock check nor the rts bump.
	// An adjacency walk reads every record on its list: it follows a
	// rejected relationship's list pointer.
	var rec storage.NodeRec
	var props []storage.Prop
	for attempt := 0; ; attempt++ {
		bts1 := e.dev.ReadU64(off + storage.NBts)
		ets1 := e.dev.ReadU64(off + storage.NEts)
		rec = storage.ReadNodeRec(e.dev, off)
		if rec.TxnID != 0 {
			return NodeSnap{}, nil, tx.fail(AbortValidation, "node %d is write-locked by txn %d", id, rec.TxnID)
		}
		propsOK := true
		if rec.Bts != 0 && rec.Bts <= tx.id && tx.id < rec.Ets {
			if label == 0 || rec.Label == label {
				props, propsOK = storage.ReadPropChainInto(e.props, rec.Props, dst, maxPropWalk)
			}
			// Bump rts BEFORE re-reading the lock word. A writer CASes
			// the lock and then reads rts, so either it observes our bump
			// (and aborts if we are newer) or its lock lands first and
			// the check below sees it — one of the two conflicting sides
			// always yields. A spurious bump from a read that then aborts
			// or retries is harmless: a stale rts only over-aborts
			// writers.
			e.nodeRTSOf(id).bump(id, tx.id) // rts is updated only on latest-version reads
		}
		if e.dev.ReadU64(off+storage.NTxnID) != 0 {
			return NodeSnap{}, nil, tx.fail(AbortValidation, "node %d was locked during read", id)
		}
		if propsOK && e.dev.ReadU64(off+storage.NBts) == bts1 && e.dev.ReadU64(off+storage.NEts) == ets1 &&
			rec.Bts == bts1 && rec.Ets == ets1 {
			break // no commit overlapped the read
		}
		if attempt >= 3 {
			return NodeSnap{}, nil, tx.fail(AbortValidation, "node %d kept being rewritten during read", id)
		}
	}
	if rec.Bts == 0 {
		return NodeSnap{}, nil, ErrNotFound
	}
	if rec.Bts <= tx.id && tx.id < rec.Ets {
		if label != 0 && rec.Label != label {
			return NodeSnap{ID: id, Rec: rec}, nil, errWrongLabel
		}
		return NodeSnap{ID: id, Rec: rec}, props, nil
	}
	v, steps := e.nodeChainsOf(id).find(id, tx.id)
	e.tel.ChainWalk.Observe(steps)
	if v != nil {
		return nodeVersionSnap(id, v, label)
	}
	return NodeSnap{}, nil, ErrNotFound
}

// nodeVersionSnap is the snapshot of DRAM version v under the label test.
func nodeVersionSnap(id uint64, v *version, label uint32) (NodeSnap, []storage.Prop, error) {
	if label != 0 && v.node.Label != label {
		return NodeSnap{ID: id, Rec: *v.node}, nil, errWrongLabel
	}
	return NodeSnap{ID: id, Rec: *v.node, ver: v}, nil, nil
}

// GetRel returns the visible version of relationship id.
func (tx *Tx) GetRel(id uint64) (RelSnap, error) {
	var buf [pointPropBuf]storage.Prop
	snap, props, err := tx.readRel(id, 0, buf[:0])
	if len(props) > 0 {
		snap.props = append(make([]storage.Prop, 0, len(props)), props...)
	}
	return snap, err
}

// readRel is the relationship counterpart of readNode.
func (tx *Tx) readRel(id uint64, label uint32, dst []storage.Prop) (RelSnap, []storage.Prop, error) {
	if err := tx.check(); err != nil {
		return RelSnap{}, nil, err
	}
	if d, ok := tx.dirty[objKey{kindRel, id}]; ok {
		if d.isDelete {
			return RelSnap{}, nil, ErrNotFound
		}
		return relVersionSnap(id, d.ver, label)
	}
	e := tx.e
	off, ok := e.rels.RecordOffset(id)
	if !ok || !e.rels.Occupied(id) {
		return RelSnap{}, nil, ErrNotFound
	}
	// Same seqlock-style stable read as readNode — see the comment there.
	var rec storage.RelRec
	var props []storage.Prop
	for attempt := 0; ; attempt++ {
		bts1 := e.dev.ReadU64(off + storage.RBts)
		ets1 := e.dev.ReadU64(off + storage.REts)
		rec = storage.ReadRelRec(e.dev, off)
		if rec.TxnID != 0 {
			return RelSnap{}, nil, tx.fail(AbortValidation, "relationship %d is write-locked by txn %d", id, rec.TxnID)
		}
		propsOK := true
		if rec.Bts != 0 && rec.Bts <= tx.id && tx.id < rec.Ets {
			if label == 0 || rec.Label == label {
				props, propsOK = storage.ReadPropChainInto(e.props, rec.Props, dst, maxPropWalk)
			}
			e.relRTSOf(id).bump(id, tx.id)
		}
		if e.dev.ReadU64(off+storage.RTxnID) != 0 {
			return RelSnap{}, nil, tx.fail(AbortValidation, "relationship %d was locked during read", id)
		}
		if propsOK && e.dev.ReadU64(off+storage.RBts) == bts1 && e.dev.ReadU64(off+storage.REts) == ets1 &&
			rec.Bts == bts1 && rec.Ets == ets1 {
			break
		}
		if attempt >= 3 {
			return RelSnap{}, nil, tx.fail(AbortValidation, "relationship %d kept being rewritten during read", id)
		}
	}
	if rec.Bts == 0 {
		return RelSnap{}, nil, ErrNotFound
	}
	if rec.Bts <= tx.id && tx.id < rec.Ets {
		if label != 0 && rec.Label != label {
			return RelSnap{ID: id, Rec: rec}, nil, errWrongLabel
		}
		return RelSnap{ID: id, Rec: rec}, props, nil
	}
	v, steps := e.relChainsOf(id).find(id, tx.id)
	e.tel.ChainWalk.Observe(steps)
	if v != nil {
		return relVersionSnap(id, v, label)
	}
	return RelSnap{}, nil, ErrNotFound
}

func relVersionSnap(id uint64, v *version, label uint32) (RelSnap, []storage.Prop, error) {
	if label != 0 && v.rel.Label != label {
		return RelSnap{ID: id, Rec: *v.rel}, nil, errWrongLabel
	}
	return RelSnap{ID: id, Rec: *v.rel, ver: v}, nil, nil
}

// mustAbort rolls the transaction back after a protocol violation so the
// caller cannot accidentally continue using it.
func (tx *Tx) mustAbort() {
	_ = tx.Abort()
}

// --- traversal access paths (§6.1 ForeachRelationship) ---

// OutRels visits every visible outgoing relationship of the node snap,
// following the offset-linked relationship list directly in (P)Mem (DD4).
func (tx *Tx) OutRels(n NodeSnap, fn func(RelSnap) bool) error {
	return tx.adjRels(n.Rec.Out, true, fn)
}

// InRels visits every visible incoming relationship of the node snap.
func (tx *Tx) InRels(n NodeSnap, fn func(RelSnap) bool) error {
	return tx.adjRels(n.Rec.In, false, fn)
}

func (tx *Tx) adjRels(head uint64, out bool, fn func(RelSnap) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	var it AdjIter
	it.Reset(tx, head, out, 0)
	for {
		ok, err := it.Next()
		if !ok || err != nil || !fn(it.Rel()) {
			return err
		}
	}
}

// rawRelNext reads the chain pointer of a relationship record regardless
// of visibility, so traversals can skip over tombstoned or too-new
// relationships without losing the rest of the list.
func (tx *Tx) rawRelNext(rid uint64, out bool) (uint64, bool) {
	e := tx.e
	if d, ok := tx.dirty[objKey{kindRel, rid}]; ok {
		if out {
			return d.ver.rel.NextSrc, true
		}
		return d.ver.rel.NextDst, true
	}
	off, ok := e.rels.RecordOffset(rid)
	if !ok || !e.rels.Occupied(rid) {
		return 0, false
	}
	if out {
		return e.dev.ReadU64(off + storage.RNextSrc), true
	}
	return e.dev.ReadU64(off + storage.RNextDst), true
}

// --- scans ---

// ScanNodes visits every node visible to the transaction in id order. The
// snapshot fn gets is valid for that call only: the scan reads every row's
// property set into one buffer. A caller that keeps a snapshot and reads
// its properties later copies it (PropSlab.OwnNode) or re-reads it
// (GetNode); its ID and Rec are plain values and stay valid.
func (tx *Tx) ScanNodes(fn func(NodeSnap) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	it := tx.NewNodeIter(0)
	for {
		ok, err := it.Next()
		if !ok || err != nil || !fn(it.Node()) {
			return err
		}
	}
}

// ScanRels visits every relationship visible to the transaction. As with
// ScanNodes, the snapshot fn gets is valid for that call only
// (PropSlab.OwnRel copies one).
func (tx *Tx) ScanRels(fn func(RelSnap) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	it := tx.NewRelIter(0)
	for {
		ok, err := it.Next()
		if !ok || err != nil || !fn(it.Rel()) {
			return err
		}
	}
}

// --- writes ---

// lockNode write-locks node id via CaS on its txn-id field (§5.1) and
// creates its DRAM dirty version in the write set. Subsequent writes by
// the same transaction reuse the dirty version.
func (tx *Tx) lockNode(id uint64) (*dirtyObj, error) {
	key := objKey{kindNode, id}
	if d, ok := tx.dirty[key]; ok {
		if d.isDelete {
			return nil, ErrNotFound
		}
		return d, nil
	}
	e := tx.e
	off, ok := e.nodes.RecordOffset(id)
	if !ok || !e.nodes.Occupied(id) {
		return nil, ErrNotFound
	}
	if !e.dev.CompareAndSwapU64(off+storage.NTxnID, 0, tx.id) {
		return nil, tx.fail(AbortWriteConflict, "node %d is locked by txn %d", id, e.dev.ReadU64(off+storage.NTxnID))
	}
	rec := storage.ReadNodeRec(e.dev, off)
	rec.TxnID = 0 // the lock word is protocol state, not version content
	if unlockErr := tx.writeChecksNode(off, id, rec); unlockErr != nil {
		return nil, unlockErr
	}
	oldProps := storage.ReadPropChain(e.props, rec.Props)
	newRec := rec
	ver := &version{node: &newRec, props: append([]storage.Prop(nil), oldProps...)}
	return tx.track(&dirtyObj{key: key, ver: ver, hasOld: true, oldNode: rec, oldProps: oldProps}), nil
}

// track adds d to the write set. Begin leaves the set nil, so a
// read-only transaction never allocates one.
func (tx *Tx) track(d *dirtyObj) *dirtyObj {
	if tx.dirty == nil {
		tx.dirty = make(map[objKey]*dirtyObj)
	}
	tx.dirty[d.key] = d
	tx.order = append(tx.order, d.key)
	return d
}

// writeChecksNode enforces the MVTO write rules after the lock was taken:
// the record must be the latest committed version and must not have been
// read by a more recent transaction (rts check). On violation the lock is
// released and the transaction aborted.
func (tx *Tx) writeChecksNode(off, id uint64, rec storage.NodeRec) error {
	e := tx.e
	unlock := func() { e.unlock(off + storage.NTxnID) }
	if rec.Bts == 0 {
		unlock()
		return ErrNotFound
	}
	if rec.Ets != Infinity {
		unlock()
		if rec.Ets <= tx.id {
			return ErrNotFound // deleted before us
		}
		return tx.fail(AbortWriteConflict, "node %d deleted by a newer transaction", id)
	}
	if rec.Bts > tx.id {
		unlock()
		return tx.fail(AbortWriteConflict, "node %d has a newer version (bts %d > txn %d)", id, rec.Bts, tx.id)
	}
	if rts := e.nodeRTSOf(id).get(id); rts > tx.id {
		unlock()
		return tx.fail(AbortValidation, "node %d was read by txn %d > %d", id, rts, tx.id)
	}
	return nil
}

// lockRel is the relationship counterpart of lockNode.
func (tx *Tx) lockRel(id uint64) (*dirtyObj, error) {
	key := objKey{kindRel, id}
	if d, ok := tx.dirty[key]; ok {
		if d.isDelete {
			return nil, ErrNotFound
		}
		return d, nil
	}
	e := tx.e
	off, ok := e.rels.RecordOffset(id)
	if !ok || !e.rels.Occupied(id) {
		return nil, ErrNotFound
	}
	if !e.dev.CompareAndSwapU64(off+storage.RTxnID, 0, tx.id) {
		return nil, tx.fail(AbortWriteConflict, "relationship %d is locked by txn %d", id, e.dev.ReadU64(off+storage.RTxnID))
	}
	rec := storage.ReadRelRec(e.dev, off)
	rec.TxnID = 0
	unlock := func() { e.unlock(off + storage.RTxnID) }
	if rec.Bts == 0 {
		unlock()
		return nil, ErrNotFound
	}
	if rec.Ets != Infinity {
		unlock()
		if rec.Ets <= tx.id {
			return nil, ErrNotFound
		}
		return nil, tx.fail(AbortWriteConflict, "relationship %d deleted by a newer transaction", id)
	}
	if rec.Bts > tx.id {
		unlock()
		return nil, tx.fail(AbortWriteConflict, "relationship %d has a newer version", id)
	}
	if rts := e.relRTSOf(id).get(id); rts > tx.id {
		unlock()
		return nil, tx.fail(AbortValidation, "relationship %d was read by txn %d > %d", id, rts, tx.id)
	}
	oldProps := storage.ReadPropChain(e.props, rec.Props)
	newRec := rec
	ver := &version{rel: &newRec, props: append([]storage.Prop(nil), oldProps...)}
	return tx.track(&dirtyObj{key: key, ver: ver, hasOld: true, oldRel: rec, oldProps: oldProps}), nil
}

// CreateNode inserts a new node. Per §5.1, the record is stored in the
// persistent array immediately but stays write-locked (txn-id set,
// bts = 0) until commit.
//
//pmem:deferred-flush the record is placed unflushed (see place); the inserting commit snapshots and flushes it
func (tx *Tx) CreateNode(label string, props map[string]any) (uint64, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	e := tx.e
	labelCode, err := e.dict.Encode(label)
	if err != nil {
		return 0, err
	}
	encProps, err := e.encodeProps(props)
	if err != nil {
		return 0, err
	}
	// New nodes are placed in the transaction's home shard so that
	// single-shard workloads commit without touching any other shard's
	// lock or lane.
	home := e.homeShard(tx.id)
	id, err := e.place(e.nodes, home, func(off uint64) {
		storage.WriteNodeRec(e.dev, off, &storage.NodeRec{
			TxnID: tx.id, Bts: 0, Ets: Infinity,
			Label: uint32(labelCode),
			Out:   storage.NilID, In: storage.NilID, Props: storage.NilID,
		})
	})
	if err != nil {
		return 0, fmt.Errorf("core: create node: %w", err)
	}
	e.nodeLabels.set(id, uint32(labelCode))
	e.shards[home].homeInserts.Add(1)
	rec := storage.NodeRec{
		Bts: tx.id, Ets: Infinity,
		Label: uint32(labelCode),
		Out:   storage.NilID, In: storage.NilID, Props: storage.NilID,
	}
	ver := &version{node: &rec, props: encProps}
	key := objKey{kindNode, id}
	tx.track(&dirtyObj{key: key, ver: ver, isInsert: true, propsChanged: true})
	return id, nil
}

// CreateRel inserts a new relationship from src to dst. Both endpoint
// nodes are write-locked because their adjacency heads change (DD4: the
// new relationship is prepended to both offset-linked lists).
//
//pmem:deferred-flush the record is placed unflushed (see place); the inserting commit snapshots and flushes it
func (tx *Tx) CreateRel(src, dst uint64, label string, props map[string]any) (uint64, error) {
	if err := tx.check(); err != nil {
		return 0, err
	}
	e := tx.e
	labelCode, err := e.dict.Encode(label)
	if err != nil {
		return 0, err
	}
	encProps, err := e.encodeProps(props)
	if err != nil {
		return 0, err
	}
	srcD, err := tx.lockNode(src)
	if err != nil {
		return 0, fmt.Errorf("core: create rel: source: %w", err)
	}
	var dstD *dirtyObj
	if dst == src {
		dstD = srcD
	} else {
		dstD, err = tx.lockNode(dst)
		if err != nil {
			return 0, fmt.Errorf("core: create rel: destination: %w", err)
		}
	}

	// The relationship record is co-located with its source node's shard,
	// so a commit that touches src and its out-edges stays single-shard.
	relShard := e.ShardOfNode(src)
	nextSrc := srcD.ver.node.Out
	nextDst := dstD.ver.node.In
	id, err := e.place(e.rels, relShard, func(off uint64) {
		storage.WriteRelRec(e.dev, off, &storage.RelRec{
			TxnID: tx.id, Bts: 0, Ets: Infinity,
			Label: uint32(labelCode),
			Src:   src, Dst: dst,
			NextSrc: nextSrc, NextDst: nextDst,
			Props: storage.NilID,
		})
	})
	if err != nil {
		return 0, fmt.Errorf("core: create rel: %w", err)
	}
	e.relLabels.set(id, uint32(labelCode))
	rec := storage.RelRec{
		Bts: tx.id, Ets: Infinity,
		Label: uint32(labelCode),
		Src:   src, Dst: dst,
		NextSrc: nextSrc, NextDst: nextDst,
		Props: storage.NilID,
	}
	ver := &version{rel: &rec, props: encProps}
	key := objKey{kindRel, id}
	tx.track(&dirtyObj{key: key, ver: ver, isInsert: true, propsChanged: true})

	// Prepend to both adjacency lists in the DRAM dirty versions.
	srcD.ver.node.Out = id
	dstD.ver.node.In = id
	return id, nil
}

// SetNodeProps updates (merges) properties of a node; a nil value removes
// the key.
func (tx *Tx) SetNodeProps(id uint64, props map[string]any) error {
	if err := tx.check(); err != nil {
		return err
	}
	encProps, err := tx.e.encodeProps(props)
	if err != nil {
		return err
	}
	removes, err := tx.removalKeys(props)
	if err != nil {
		return err
	}
	d, err := tx.lockNode(id)
	if err != nil {
		return err
	}
	d.ver.props = mergeProps(d.ver.props, encProps, removes)
	d.propsChanged = true
	return nil
}

// SetRelProps updates (merges) properties of a relationship.
func (tx *Tx) SetRelProps(id uint64, props map[string]any) error {
	if err := tx.check(); err != nil {
		return err
	}
	encProps, err := tx.e.encodeProps(props)
	if err != nil {
		return err
	}
	removes, err := tx.removalKeys(props)
	if err != nil {
		return err
	}
	d, err := tx.lockRel(id)
	if err != nil {
		return err
	}
	d.ver.props = mergeProps(d.ver.props, encProps, removes)
	d.propsChanged = true
	return nil
}

func (tx *Tx) removalKeys(props map[string]any) (map[uint32]bool, error) {
	var removes map[uint32]bool
	for k, v := range props {
		if v == nil {
			code, err := tx.e.dict.Encode(k)
			if err != nil {
				return nil, err
			}
			if removes == nil {
				removes = make(map[uint32]bool)
			}
			removes[uint32(code)] = true
		}
	}
	return removes, nil
}

// mergeProps overlays updates onto base and drops removed keys.
func mergeProps(base, updates []storage.Prop, removes map[uint32]bool) []storage.Prop {
	out := make([]storage.Prop, 0, len(base)+len(updates))
	updated := make(map[uint32]storage.Value, len(updates))
	for _, u := range updates {
		if !u.Val.IsNil() {
			updated[u.Key] = u.Val
		}
	}
	for _, b := range base {
		if removes[b.Key] {
			continue
		}
		if v, ok := updated[b.Key]; ok {
			out = append(out, storage.Prop{Key: b.Key, Val: v})
			delete(updated, b.Key)
			continue
		}
		out = append(out, b)
	}
	for _, u := range updates {
		if v, ok := updated[u.Key]; ok && !removes[u.Key] {
			out = append(out, storage.Prop{Key: u.Key, Val: v})
			delete(updated, u.Key)
		}
	}
	return out
}

// DeleteRel tombstones a relationship. The physical unlink from the
// adjacency lists happens later, during garbage collection (§5.3).
func (tx *Tx) DeleteRel(id uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	d, err := tx.lockRel(id)
	if err != nil {
		return err
	}
	d.isDelete = true
	return nil
}

// DeleteNode tombstones a node. It fails with ErrHasRels if the node
// still has visible relationships; use DetachDeleteNode to cascade.
func (tx *Tx) DeleteNode(id uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	snap, err := tx.GetNode(id)
	if err != nil {
		return err
	}
	hasRel := false
	if err := tx.OutRels(snap, func(RelSnap) bool { hasRel = true; return false }); err != nil {
		return err
	}
	if !hasRel {
		if err := tx.InRels(snap, func(RelSnap) bool { hasRel = true; return false }); err != nil {
			return err
		}
	}
	if hasRel {
		return ErrHasRels
	}
	d, err := tx.lockNode(id)
	if err != nil {
		return err
	}
	d.isDelete = true
	return nil
}

// DetachDeleteNode deletes a node and all its visible relationships.
func (tx *Tx) DetachDeleteNode(id uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	snap, err := tx.GetNode(id)
	if err != nil {
		return err
	}
	var relIDs []uint64
	if err := tx.OutRels(snap, func(r RelSnap) bool { relIDs = append(relIDs, r.ID); return true }); err != nil {
		return err
	}
	if err := tx.InRels(snap, func(r RelSnap) bool { relIDs = append(relIDs, r.ID); return true }); err != nil {
		return err
	}
	for _, rid := range relIDs {
		if err := tx.DeleteRel(rid); err != nil && err != ErrNotFound {
			return err
		}
	}
	return tx.DeleteNode(id)
}
