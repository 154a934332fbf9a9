package core

import (
	"slices"

	"poseidon/internal/storage"
)

// Pull-style iterators over the transaction's snapshot. These are the
// AOT-compiled access methods that both the interpreter and the JIT
// backend reuse (§6.2), packaged in pull form so compiled pipelines can
// drive them from generated loop code. Every walker pushes its label
// filter down into the one read protocol (Tx.read), and is resettable: the
// zero value is ready for Reset, and a pipeline keeps one per position
// across morsels, so that its slab is reused instead of reallocated.
//
// A table scan's walker (NodeIter, RelTableIter) holds one row, as a
// compiled scan keeps its row in registers (§6.2): the snapshot it hands
// out is valid until its next Next or Reset. Whoever keeps a scanned
// snapshot longer takes an owned copy (PropSlab.OwnNode/OwnRel). The
// other walkers (AdjIter, IndexIter) and Tx.GetNodeIn append to their
// slab, so their snapshots outlive the walker.

// PropSlab is the arena a walker, a point reader's caller (Tx.GetNodeIn)
// or a keeper of owned copies keeps the property sets of snapshots in.
// Snapshots own capped sub-slices of it. Appended to, a slab that runs out
// is replaced, so a snapshot stays valid until the slab's owner rewinds
// it: an append-only walker never does; a scan walker does before every
// row.
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

// Rewind drops every property set the slab holds and keeps its array for
// the next ones. Only the slab's owner may call it, once no snapshot of
// those sets is in use.
func (s *PropSlab) Rewind() { s.buf = s.buf[:0] }

// hold is keep for a walker that holds one row, whose slab was rewound
// before the read: a chain that spilled leaves its longer array to the
// slab, so a walker allocates O(log longest chain) times in its life.
func (s *PropSlab) hold(props []storage.Prop) []storage.Prop {
	if cap(props) > cap(s.buf) {
		s.buf = props[:0]
	}
	return slices.Clip(props)
}

// OwnNode returns n with its property set copied into the slab, valid
// until the slab is rewound: a keeper's copy of a scanned snapshot. A
// DRAM version's set is the version's and is not copied.
func (s *PropSlab) OwnNode(n NodeSnap) NodeSnap {
	n.props = s.own(n.props)
	return n
}

// OwnRel is OwnNode for a relationship snapshot.
func (s *PropSlab) OwnRel(r RelSnap) RelSnap {
	r.props = s.own(r.props)
	return r
}

func (s *PropSlab) own(props []storage.Prop) []storage.Prop {
	if len(props) == 0 {
		return props
	}
	return s.keep(append(s.free(), props...))
}

// tableWalk is the one walker loop behind NodeIter and RelTableIter: the
// visible records of one kind in an id range, read through the shared
// protocol (Tx.read) one row at a time. It walks the occupied slots,
// passing over a slot the table's label mirror knows to hold another
// label without a device read, and caches occupancy bitmap words so 64
// slots cost one bitmap read.
type tableWalk struct {
	tx       *Tx
	kind     objKind
	label    uint32 // 0 = all labels
	pos, end uint64
	word     uint64 // cached occupancy bits for [wordBase, wordBase+64)
	wordBase uint64
	haveWord bool
	id       uint64 // the current row's
	slab     PropSlab
}

// reset aims the walk at the records of kind k with from <= id < to,
// clipped to the table, that may carry label (0: any).
func (w *tableWalk) reset(tx *Tx, k objKind, from, to uint64, label uint32) {
	w.tx, w.kind, w.label = tx, k, label
	w.pos, w.end, w.haveWord = from, min(to, tx.e.tables[k].MaxID()), false
}

// next reads the next visible record into w.id: the DRAM version it
// found, or nil with the PMem record in r, and the record's property set,
// held in the walk's slab until the next call.
func (w *tableWalk) next(r *record) (*version, []storage.Prop, bool, error) {
	tbl, labels := w.tx.e.tables[w.kind], &w.tx.e.labels[w.kind]
	cap_ := tbl.ChunkCap()
	for w.pos < w.end {
		id := w.pos
		slot := id % cap_
		// Bitmap words are chunk-relative; chunk starts need not be
		// 64-aligned in id space, so align on the slot, not the id.
		base := id - slot%64
		if !w.haveWord || w.wordBase != base {
			w.word = tbl.BitmapWord(id)
			w.wordBase = base
			w.haveWord = true
		}
		if w.word == 0 {
			// Skip the whole empty word, but never past the chunk end:
			// the next chunk's bitmap starts a fresh word.
			w.pos = min(base+64, (id/cap_+1)*cap_)
			continue
		}
		w.pos++
		if w.word&(1<<(slot%64)) == 0 || labels.skips(id, w.label) {
			continue
		}
		w.slab.Rewind()
		v, props, err := w.tx.read(objKey{w.kind, id}, w.label, w.slab.free(), r)
		if err == ErrNotFound || err == errWrongLabel {
			continue
		}
		if err != nil {
			return nil, nil, false, err
		}
		w.id = id
		return v, w.slab.hold(props), true, nil
	}
	return nil, nil, false, nil
}

// NodeIter iterates the visible nodes of an id range. It holds one row:
// a snapshot is valid until the iterator's next Next or Reset.
type NodeIter struct {
	walk tableWalk
	cur  NodeSnap
}

// Reset aims the iterator at the visible nodes with from <= id < to (the
// range is clipped to the table) carrying label code label, 0 for all.
func (it *NodeIter) Reset(tx *Tx, from, to uint64, label uint32) {
	it.walk.reset(tx, kindNode, from, to, label)
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
	var r record
	v, props, ok, err := it.walk.next(&r)
	if ok {
		it.cur = nodeSnapOf(it.walk.id, &r, v)
		it.cur.props = props
	}
	return ok, err
}

// Node returns the current node.
func (it *NodeIter) Node() NodeSnap { return it.cur }

// RelTableIter iterates the visible relationships of an id range. Like
// NodeIter it holds one row.
type RelTableIter struct {
	walk tableWalk
	cur  RelSnap
}

// Reset is NodeIter.Reset for the relationship table.
func (it *RelTableIter) Reset(tx *Tx, from, to uint64, label uint32) {
	it.walk.reset(tx, kindRel, from, to, label)
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
	var r record
	v, props, ok, err := it.walk.next(&r)
	if ok {
		it.cur = relSnapOf(it.walk.id, &r, v)
		it.cur.props = props
	}
	return ok, err
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

// Next advances along the offset-linked adjacency list (DD4). A
// relationship the label mirror knows to carry another label costs one
// list-pointer load (Tx.passRel); the others go through the read protocol.
func (it *AdjIter) Next() (bool, error) {
	labels := &it.tx.e.labels[kindRel]
	for it.next != storage.NilID {
		rid := it.next
		if labels.skips(rid, it.label) {
			next, ok := it.tx.passRel(rid, it.out)
			if !ok {
				return false, nil
			}
			it.next = next
			continue
		}
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
		snap, err := it.tx.GetNodeIn(id, 0, &it.slab)
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
