package core

import (
	"fmt"
	"sort"

	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// BulkLoader performs the initial dataset load (e.g. LDBC-SNB) outside
// the MVTO protocol: records are written directly, batched into large
// pmemobj transactions to amortize logging and flush costs (DG5: group
// allocation). A crash mid-load rolls back the current batch only. Every
// record in a batch carries the same begin timestamp, drawn once when
// the batch opens, so the recovered commit watermark moves once per
// batch instead of once per record.
//
// A BulkLoader writes no secondary-index entries: indexes are built after
// the load, by CreateIndex's backfill (one InsertMany sweep per shard
// tree). So NewBulkLoader refuses an engine that already has an index,
// and CreateIndex refuses while a loader is open.
//
// A BulkLoader must not run concurrently with transactions: it bypasses
// the MVTO write locks and the per-shard commit locks, and it logs
// through the pool's built-in undo log rather than a shard lane.
// NewBulkLoader and Begin enforce that with ErrBulkLoad. Shard
// membership is a pure function of the record id, so sequentially
// filled chunks still rotate over the shards and every sharded-core
// invariant holds once the load finishes.
type BulkLoader struct {
	e     *Engine
	tx    *pmemobj.Tx
	ops   int
	batch int
	// ts is the current batch's begin timestamp (the per-batch
	// watermark advance).
	ts  uint64
	err error
	// open is set while this loader holds the engine's bulkLoading flag:
	// from NewBulkLoader until Finish or the first failure.
	open bool
}

// bulkBatch bounds a batch so its bitmap/record snapshots stay far below
// the undo-log capacity.
const bulkBatch = 256

// NewBulkLoader starts a bulk load session. The session excludes
// transactions: until Finish (or the loader's first failure) Begin
// returns transactions that fail with ErrBulkLoad, and a loader started
// while a transaction is active, another loader is open or a secondary
// index exists is dead — every call on it, Finish included, returns
// ErrBulkLoad.
func (e *Engine) NewBulkLoader() *BulkLoader {
	b := &BulkLoader{e: e, batch: bulkBatch}
	// idxDDL orders the index check against CreateIndex's flag check.
	e.idxDDL.Lock()
	defer e.idxDDL.Unlock()
	sh0 := &e.shards[0]
	sh0.idxMu.RLock()
	indexed := len(sh0.indexes) > 0
	sh0.idxMu.RUnlock()
	// beginMu's write side waits out every Begin between its clock draw
	// and its registration, so the check cannot miss a starting
	// transaction, and a later Begin sees the flag.
	e.beginMu.Lock()
	b.open = !indexed && e.ActiveTxs() == 0 && e.bulkLoading.CompareAndSwap(false, true)
	e.beginMu.Unlock()
	if !b.open {
		b.err = ErrBulkLoad
	}
	return b
}

// release reopens the engine for transactions.
func (b *BulkLoader) release() {
	if b.open {
		b.open = false
		b.e.bulkLoading.Store(false)
	}
}

func (b *BulkLoader) ensureTx() {
	if b.tx == nil {
		b.tx = b.e.pool.Begin()
		b.ops = 0
		// One watermark advance per batch: all records of this batch
		// share one begin timestamp. The clock is volatile (recovery
		// restores it from the maximum committed timestamp), so a batch
		// rolled back by a crash wastes nothing.
		b.ts = b.e.clock.Add(1)
	}
}

// flush commits the open batch, if any.
func (b *BulkLoader) flush() {
	if b.tx == nil {
		return
	}
	b.tx.Commit()
	b.tx = nil
}

func (b *BulkLoader) bump() {
	b.ops++
	if b.ops >= b.batch {
		b.flush()
	}
}

// encode interns a string inside the open batch transaction: a new
// string is failure-atomic with the batch and pays no transaction of
// its own. LDBC message content makes most ingested string values
// unique, so this is what keeps batches intact under real data.
func (b *BulkLoader) encode(s string) (uint64, error) {
	if code, ok := b.e.dict.Lookup(s); ok {
		return code, nil
	}
	b.ensureTx()
	return b.e.dict.EncodeTx(b.tx, s)
}

func (b *BulkLoader) encodeProps(props map[string]any) ([]storage.Prop, error) {
	if len(props) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]storage.Prop, 0, len(props))
	for _, k := range keys {
		kc, err := b.encode(k)
		if err != nil {
			return nil, err
		}
		var v storage.Value
		if s, isStr := props[k].(string); isStr {
			code, err := b.encode(s)
			if err != nil {
				return nil, err
			}
			v = storage.StringValue(code)
		} else if v, err = b.e.EncodeValue(props[k]); err != nil {
			return nil, fmt.Errorf("core: property %q: %w", k, err)
		}
		out = append(out, storage.Prop{Key: uint32(kc), Val: v})
	}
	return out, nil
}

// AddNode inserts a committed node and returns its id.
func (b *BulkLoader) AddNode(label string, props map[string]any) (uint64, error) {
	if b.err != nil {
		return 0, b.err
	}
	labelCode, err := b.encode(label)
	if err != nil {
		return 0, b.fail(err)
	}
	encProps, err := b.encodeProps(props)
	if err != nil {
		return 0, b.fail(err)
	}
	b.ensureTx()
	id, off, err := b.e.tables[kindNode].InsertTx(b.tx)
	if err != nil {
		return 0, b.failTx(err)
	}
	head, err := storage.WritePropChainTx(b.tx, b.e.props, id, encProps)
	if err != nil {
		return 0, b.failTx(err)
	}
	rec := storage.NodeRec{
		Bts: b.ts, Ets: Infinity,
		Label: uint32(labelCode),
		Out:   storage.NilID, In: storage.NilID, Props: head,
	}
	storage.WriteNodeRec(b.e.dev, off, &rec)
	b.tx.NoteWrite(off, storage.NodeRecordSize)
	b.e.labels[kindNode].set(id, rec.Label)
	b.bump()
	return id, nil
}

// AddRel inserts a committed relationship between existing nodes and
// links it into both adjacency lists.
func (b *BulkLoader) AddRel(src, dst uint64, label string, props map[string]any) (uint64, error) {
	if b.err != nil {
		return 0, b.err
	}
	labelCode, err := b.encode(label)
	if err != nil {
		return 0, b.fail(err)
	}
	encProps, err := b.encodeProps(props)
	if err != nil {
		return 0, b.fail(err)
	}
	e := b.e
	nodes := e.tables[kindNode]
	srcOff, ok := nodes.RecordOffset(src)
	if !ok || !nodes.Occupied(src) {
		return 0, b.fail(fmt.Errorf("%w: source node %d", ErrNotFound, src))
	}
	dstOff, ok := nodes.RecordOffset(dst)
	if !ok || !nodes.Occupied(dst) {
		return 0, b.fail(fmt.Errorf("%w: destination node %d", ErrNotFound, dst))
	}

	b.ensureTx()
	id, off, err := e.tables[kindRel].InsertTx(b.tx)
	if err != nil {
		return 0, b.failTx(err)
	}
	head, err := storage.WritePropChainTx(b.tx, e.props, id, encProps)
	if err != nil {
		return 0, b.failTx(err)
	}
	rec := storage.RelRec{
		Bts: b.ts, Ets: Infinity,
		Label: uint32(labelCode),
		Src:   src, Dst: dst,
		NextSrc: e.dev.ReadU64(srcOff + storage.NOut),
		NextDst: e.dev.ReadU64(dstOff + storage.NIn),
		Props:   head,
	}
	storage.WriteRelRec(e.dev, off, &rec)
	b.tx.NoteWrite(off, storage.RelRecordSize)
	e.labels[kindRel].set(id, rec.Label)

	// Prepend to both adjacency lists — one group fence for both
	// head-pointer undo images instead of two.
	if err := b.tx.SnapshotAll([]pmemobj.Range{
		{Off: srcOff + storage.NOut, N: 8},
		{Off: dstOff + storage.NIn, N: 8},
	}); err != nil {
		return 0, b.failTx(err)
	}
	e.dev.WriteU64(srcOff+storage.NOut, id)
	e.dev.WriteU64(dstOff+storage.NIn, id)
	b.bump()
	return id, nil
}

func (b *BulkLoader) fail(err error) error {
	b.flush()
	b.release()
	b.err = err
	return err
}

func (b *BulkLoader) failTx(err error) error {
	// The batch transaction cannot continue; roll back its persistent
	// effects by abandoning commit and letting recovery handle it is not
	// an option online, so commit what is consistent: the safe move is to
	// commit nothing further and surface the error.
	if b.tx != nil {
		b.tx.Commit() // snapshots so far are internally consistent
		b.tx = nil
	}
	for _, tbl := range b.e.tables {
		tbl.ResyncVolatile()
	}
	b.e.props.ResyncVolatile()
	b.release()
	b.err = err
	return err
}

// Finish commits the final batch and returns the first error encountered.
func (b *BulkLoader) Finish() error {
	b.flush()
	b.release()
	return b.err
}
