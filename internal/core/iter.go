package core

import (
	"slices"

	"poseidon/internal/storage"
)

// Pull-style iterators over the transaction's snapshot. These are the
// AOT-compiled access methods that both the interpreter and the JIT
// backend reuse (§6.2), packaged in pull form so compiled pipelines can
// drive them from generated loop code. Every walker pushes its label
// filter down into the read (readNode/readRel), and is resettable: the
// zero value is ready for Reset, and a pipeline keeps one per position
// across morsels, so that its slab is reused instead of reallocated.

// PropSlab is the append-only arena a walker, or a point reader's caller
// (Tx.GetNodeIn), keeps the property sets of its snapshots in. Snapshots
// own capped sub-slices of it; a slab that runs out is replaced, never
// rewound, so a snapshot outlives the walker (and any Reset of it)
// without a lifetime rule.
type PropSlab struct{ buf []storage.Prop }

// Slabs start small — most adjacency walks of a point query return a
// handful of properties — and double up to propSlabMax per replacement.
const (
	propSlabMin = 8
	propSlabMax = 512
)

// free returns the slab's unused tail as the destination of one chain
// read, first replacing a slab with less than propSlabMin room. A longer
// chain spills to an array of its own (append semantics).
func (s *PropSlab) free() []storage.Prop {
	if cap(s.buf)-len(s.buf) < propSlabMin {
		s.buf = make([]storage.Prop, 0, min(max(2*cap(s.buf), propSlabMin), propSlabMax))
	}
	return s.buf[len(s.buf):]
}

// keep claims props, the result of a chain read into free(), for a
// snapshot: the slab advances past it unless it spilled.
func (s *PropSlab) keep(props []storage.Prop) []storage.Prop {
	if len(props) <= cap(s.buf)-len(s.buf) {
		s.buf = s.buf[:len(s.buf)+len(props)]
	}
	return slices.Clip(props)
}

// slotWalk walks the occupied slots of an id range of a table. Occupancy
// bitmap words are cached so 64 slots cost one bitmap read.
type slotWalk struct {
	tbl       *storage.Table
	next, end uint64
	word      uint64 // cached occupancy bits for [wordBase, wordBase+64)
	wordBase  uint64
	haveWord  bool
}

// reset aims the walk at from <= id < to, clipped to the table.
func (w *slotWalk) reset(tbl *storage.Table, from, to uint64) {
	*w = slotWalk{tbl: tbl, next: from, end: min(to, tbl.MaxID())}
}

// nextOccupied returns the next occupied slot's id.
func (w *slotWalk) nextOccupied() (uint64, bool) {
	cap_ := w.tbl.ChunkCap()
	for w.next < w.end {
		id := w.next
		slot := id % cap_
		// Bitmap words are chunk-relative; chunk starts need not be
		// 64-aligned in id space, so align on the slot, not the id.
		base := id - slot%64
		if !w.haveWord || w.wordBase != base {
			w.word = w.tbl.BitmapWord(id)
			w.wordBase = base
			w.haveWord = true
		}
		if w.word == 0 {
			// Skip the whole empty word, but never past the chunk end:
			// the next chunk's bitmap starts a fresh word.
			w.next = min(base+64, (id/cap_+1)*cap_)
			continue
		}
		w.next++
		if w.word&(1<<(slot%64)) != 0 {
			return id, true
		}
	}
	return 0, false
}

// NodeIter iterates the visible nodes of an id range.
type NodeIter struct {
	tx    *Tx
	slots slotWalk
	label uint32 // 0 = all labels
	cur   NodeSnap
	slab  PropSlab
}

// Reset aims the iterator at the visible nodes with from <= id < to (the
// range is clipped to the table) carrying label code label, 0 for all.
func (it *NodeIter) Reset(tx *Tx, from, to uint64, label uint32) {
	it.tx, it.label = tx, label
	it.slots.reset(tx.e.nodes, from, to)
}

// NewNodeRangeIter iterates the visible nodes with from <= id < to — the
// morsel shape of parallel scans.
func (tx *Tx) NewNodeRangeIter(from, to uint64, labelCode uint32) *NodeIter {
	it := new(NodeIter)
	it.Reset(tx, from, to, labelCode)
	return it
}

// NewNodeIter iterates every visible node in the table.
func (tx *Tx) NewNodeIter(labelCode uint32) *NodeIter {
	return tx.NewNodeRangeIter(0, ^uint64(0), labelCode)
}

// Next advances to the next visible node. It returns false at the end;
// a non-nil error aborts the query (lock conflict).
func (it *NodeIter) Next() (bool, error) {
	for {
		id, ok := it.slots.nextOccupied()
		if !ok {
			return false, nil
		}
		snap, props, err := it.tx.readNode(id, it.label, it.slab.free())
		if err == ErrNotFound || err == errWrongLabel {
			continue
		}
		if err != nil {
			return false, err
		}
		snap.props = it.slab.keep(props)
		it.cur = snap
		return true, nil
	}
}

// Node returns the current node.
func (it *NodeIter) Node() NodeSnap { return it.cur }

// RelTableIter iterates the visible relationships of an id range.
type RelTableIter struct {
	tx    *Tx
	slots slotWalk
	label uint32
	cur   RelSnap
	slab  PropSlab
}

// Reset is NodeIter.Reset for the relationship table.
func (it *RelTableIter) Reset(tx *Tx, from, to uint64, label uint32) {
	it.tx, it.label = tx, label
	it.slots.reset(tx.e.rels, from, to)
}

// NewRelRangeIter iterates the visible relationships with from <= id < to.
func (tx *Tx) NewRelRangeIter(from, to uint64, labelCode uint32) *RelTableIter {
	it := new(RelTableIter)
	it.Reset(tx, from, to, labelCode)
	return it
}

// NewRelIter iterates every visible relationship.
func (tx *Tx) NewRelIter(labelCode uint32) *RelTableIter {
	return tx.NewRelRangeIter(0, ^uint64(0), labelCode)
}

// Next advances to the next visible relationship.
func (it *RelTableIter) Next() (bool, error) {
	for {
		id, ok := it.slots.nextOccupied()
		if !ok {
			return false, nil
		}
		snap, props, err := it.tx.readRel(id, it.label, it.slab.free())
		if err == ErrNotFound || err == errWrongLabel {
			continue
		}
		if err != nil {
			return false, err
		}
		snap.props = it.slab.keep(props)
		it.cur = snap
		return true, nil
	}
}

// Rel returns the current relationship.
func (it *RelTableIter) Rel() RelSnap { return it.cur }

// AdjIter iterates one adjacency list (out or in) of a node.
type AdjIter struct {
	tx    *Tx
	cur   RelSnap
	next  uint64
	out   bool
	label uint32
	slab  PropSlab
}

// Reset aims the iterator at the adjacency list starting at relationship
// head — a node's Rec.Out (out = true) or Rec.In — keeping the visible
// relationships with label code label, 0 for all.
func (it *AdjIter) Reset(tx *Tx, head uint64, out bool, label uint32) {
	it.tx, it.next, it.out, it.label = tx, head, out, label
}

// NewOutRelIter iterates the visible outgoing relationships of n.
func (tx *Tx) NewOutRelIter(n NodeSnap, labelCode uint32) *AdjIter {
	return &AdjIter{tx: tx, next: n.Rec.Out, out: true, label: labelCode}
}

// NewInRelIter iterates the visible incoming relationships of n.
func (tx *Tx) NewInRelIter(n NodeSnap, labelCode uint32) *AdjIter {
	return &AdjIter{tx: tx, next: n.Rec.In, out: false, label: labelCode}
}

// Next advances along the offset-linked adjacency list (DD4).
func (it *AdjIter) Next() (bool, error) {
	for it.next != storage.NilID {
		rid := it.next
		r, props, err := it.tx.readRel(rid, it.label, it.slab.free())
		if err == ErrNotFound {
			// Invisible: follow the committed list structure.
			next, ok := it.tx.rawRelNext(rid, it.out)
			if !ok {
				return false, nil
			}
			it.next = next
			continue
		}
		if err != nil && err != errWrongLabel {
			return false, err
		}
		if it.out {
			it.next = r.Rec.NextSrc
		} else {
			it.next = r.Rec.NextDst
		}
		if err == errWrongLabel {
			continue
		}
		r.props = it.slab.keep(props)
		it.cur = r
		return true, nil
	}
	return false, nil
}

// Rel returns the current relationship.
func (it *AdjIter) Rel() RelSnap { return it.cur }

// IndexIter iterates index hits re-validated against the snapshot. Like
// the other walkers it is resettable and keeps its hits' property sets in
// its slab.
type IndexIter struct {
	tx   *Tx
	ids  []uint64
	pos  int
	cur  NodeSnap
	slab PropSlab
}

// Reset looks up v in the index and aims the iterator at the visible
// hits, reusing the iterator's id buffer; the zero IndexIter is ready for
// it. Like IndexedLookup it fails in a finished transaction, hits or not.
func (it *IndexIter) Reset(tx *Tx, ref *IndexRef, v storage.Value) error {
	if err := tx.check(); err != nil {
		return err
	}
	it.tx, it.pos = tx, 0
	it.ids = ref.LookupAppend(it.ids[:0], v)
	return nil
}

// Next advances to the next visible indexed node.
func (it *IndexIter) Next() (bool, error) {
	for it.pos < len(it.ids) {
		id := it.ids[it.pos]
		it.pos++
		snap, err := it.tx.GetNodeIn(id, &it.slab)
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			return false, err
		}
		it.cur = snap
		return true, nil
	}
	return false, nil
}

// Node returns the current node.
func (it *IndexIter) Node() NodeSnap { return it.cur }
