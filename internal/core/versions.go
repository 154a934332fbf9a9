package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"poseidon/internal/storage"
)

// Volatile MVCC sidecars (§5.1/§5.2). Each record's persistent part
// carries txn-id/bts/ets; the volatile part — the paper's "pointer" field
// to the DRAM-resident versions, and the read timestamp rts — lives here.
// Both are re-initialized (empty) after a restart, which §5.1 explicitly
// allows for rts.
//
// A dirty (uncommitted) version lives only in its transaction's write set:
// no other transaction can see it (the record stays CAS-locked until the
// commit's unlock), and the owner reads its own writes through tx.dirty.
// The chains hold superseded committed versions only, and only those a
// still-active older transaction may read (see persistGroup step 1).

// version is one DRAM-resident version of a node or relationship: the
// dirty version of an in-flight transaction's write set, or a superseded
// committed version kept in a chain for older readers until garbage
// collection.
type version struct {
	bts, ets uint64 // visibility window of a committed version

	node  *storage.NodeRec // exactly one of node/rel is set
	rel   *storage.RelRec
	props []storage.Prop
}

// visibleAt reports whether the version is visible to a reader at ts.
func (v *version) visibleAt(ts uint64) bool {
	return v.bts <= ts && ts < v.ets
}

// labelErr is errWrongLabel when label (0: any) is not the version's.
func (v *version) labelErr(label uint32) error {
	if label == 0 {
		return nil
	}
	if v.node != nil && v.node.Label != label || v.rel != nil && v.rel.Label != label {
		return errWrongLabel
	}
	return nil
}

const chainShards = 64

// chainShard guards its chains: every chain operation runs under mu, so a
// version is never pushed into a chain GC is dropping.
type chainShard struct {
	mu sync.Mutex
	m  map[uint64][]*version // oldest first
}

// chainTable maps record ids to their volatile version chains. It stands
// in for the per-record volatile pointer field of Fig 2. A chain exists
// only while it holds a retained version: GC drops it once it is empty.
type chainTable struct {
	shards [chainShards]chainShard
}

func newChainTable() *chainTable {
	t := &chainTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64][]*version)
	}
	return t
}

func (t *chainTable) shard(id uint64) *chainShard {
	return &t.shards[id%chainShards]
}

// push appends v, the newest version of id. Versions of one record are
// pushed under its shard's commit lock in commit order.
func (t *chainTable) push(id uint64, v *version) {
	s := t.shard(id)
	s.mu.Lock()
	s.m[id] = append(s.m[id], v)
	s.mu.Unlock()
}

// remove takes the version of id superseded by the transaction ets back
// out of the chain (its commit failed), dropping the chain if empty.
func (t *chainTable) remove(id, ets uint64) {
	s := t.shard(id)
	s.mu.Lock()
	s.store(id, slices.DeleteFunc(s.m[id], func(v *version) bool { return v.ets == ets }))
	s.mu.Unlock()
}

// find returns the version of id visible at ts, if any. It also reports
// how many versions were inspected — the chain-walk length MVTO read
// performance depends on (telemetry feeds it into a histogram). The walk
// runs newest first: a recent reader finds its version soonest.
func (t *chainTable) find(id, ts uint64) (*version, uint64) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.m[id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].visibleAt(ts) {
			return vs[i], uint64(len(vs) - i)
		}
	}
	return nil, uint64(len(vs))
}

// prune drops the versions of id invisible to every transaction at or
// after minActive, and the chain itself once it is empty.
func (t *chainTable) prune(id, minActive uint64) {
	s := t.shard(id)
	s.mu.Lock()
	s.store(id, slices.DeleteFunc(s.m[id], func(v *version) bool { return v.ets <= minActive }))
	s.mu.Unlock()
}

// store sets the chain of id, deleting it when empty. (slices.DeleteFunc
// zeroes the tail it cuts, so dropped versions become collectable.)
// Caller holds s.mu.
func (s *chainShard) store(id uint64, vs []*version) {
	if len(vs) == 0 {
		delete(s.m, id)
		return
	}
	s.m[id] = vs
}

// retainedVer names a version a commit pushed into a chain: the version
// of key that the transaction ets superseded. GC prunes it once no active
// transaction is older than ets.
type retainedVer struct {
	key objKey
	ets uint64
}

// --- per-record words (volatile, lock-free) ---

// wordBlockLen is how many consecutive record ids share one block of a
// wordTable.
const wordBlockLen = 1024

// wordTable is one volatile word per index — a record id of a table, or
// a group of ids — in blocks allocated on the first store to an index in
// them. Blocks never move, so a word's address is stable and reading it
// takes no lock; only growing the directory and installing a block do.
// The rts sidecar is one per record id; the label mirror keeps its slot
// bytes in one, a word per four ids.
type wordTable[W any] struct {
	mu  sync.Mutex                                        // serializes growing dir and installing blocks
	dir atomic.Pointer[[]atomic.Pointer[[wordBlockLen]W]] // replaced by a longer copy to grow
}

// word returns the word of index id, or nil if its block was never
// allocated and alloc is false. A block installed before a lookup is in
// every directory published after it: growth copies under mu, installs
// go into the current directory under mu.
func (t *wordTable[W]) word(id uint64, alloc bool) *W {
	i := id / wordBlockLen
	if dir := t.dir.Load(); dir != nil && i < uint64(len(*dir)) {
		if b := (*dir)[i].Load(); b != nil {
			return &b[id%wordBlockLen]
		}
	}
	if !alloc {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := t.dir.Load()
	if dir == nil || i >= uint64(len(*dir)) {
		var old []atomic.Pointer[[wordBlockLen]W]
		if dir != nil {
			old = *dir
		}
		grown := make([]atomic.Pointer[[wordBlockLen]W], max(i+1, 2*uint64(len(old))))
		for j := range old {
			grown[j].Store(old[j].Load())
		}
		dir = &grown
		t.dir.Store(dir)
	}
	b := (*dir)[i].Load()
	if b == nil {
		b = new([wordBlockLen]W)
		(*dir)[i].Store(b)
	}
	return &b[id%wordBlockLen]
}

// rtsTable tracks the latest reader timestamp per record (§5.1, the
// volatile rts of Fig 2). A reader raises the word by CAS and a writer
// loads it — no lock on either side. Being volatile, it resets to zero
// after recovery, which conservatively allows the first post-restart
// writers to proceed.
type rtsTable struct{ wordTable[atomic.Uint64] }

// bump raises the rts of id to ts if larger.
func (t *rtsTable) bump(id, ts uint64) {
	w := t.word(id, true)
	for {
		cur := w.Load()
		if cur >= ts || w.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// get returns the current rts of id (0 if never read).
func (t *rtsTable) get(id uint64) uint64 {
	if w := t.word(id, false); w != nil {
		return w.Load()
	}
	return 0
}

// forget clears the rts of id (after the record slot is reused).
func (t *rtsTable) forget(id uint64) {
	if w := t.word(id, false); w != nil {
		w.Store(0)
	}
}

// labelMirror is a record table's volatile label mirror: the label code
// of the record in each slot, so a table scan can pass over another
// label's slot without reading the device (DESIGN.md "What a read
// touches"). 0 means unknown, and the scan reads the record as before.
//
// A slot costs one byte, four to a word: the index of its label in
// codes, the label codes the mirror has seen, in the order it first saw
// them. Index 0 is unknown, and so is a label first seen after 255
// others: its slots are simply read.
//
// A slot's label is fixed for the slot's life, so the mirror has one
// writer rule: set holds the label of the record the slot holds, stored
// after the record is written (an insert, a bulk load, Reopen's scan);
// clear runs before a slot is given back (abort, GC reclamation), so a
// freed slot's entry reads 0 until its next occupant sets it. Four slots
// share a word, so both store their byte with a CaS.
type labelMirror struct {
	slots wordTable[atomic.Uint32] // slot id's byte is byte id%4 of word id/4
	mu    sync.Mutex               // serializes adding a code
	n     atomic.Uint32            // codes[1..n] are in use
	codes [256]atomic.Uint32       // stored before any slot byte names it
}

func (m *labelMirror) set(id uint64, label uint32) {
	m.store(m.slots.word(id/4, true), id, m.index(label))
}

func (m *labelMirror) clear(id uint64) {
	if w := m.slots.word(id/4, false); w != nil {
		m.store(w, id, 0)
	}
}

// store sets slot id's byte of its word w to b.
func (m *labelMirror) store(w *atomic.Uint32, id uint64, b uint32) {
	shift := id % 4 * 8
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old&^(0xff<<shift)|b<<shift) {
			return
		}
	}
}

// index returns label's index in codes, adding it if there is room; 0
// when there is none (or for label 0).
func (m *labelMirror) index(label uint32) uint32 {
	if label == 0 {
		return 0
	}
	if i := m.find(label); i != 0 {
		return i
	}
	m.mu.Lock() // look again: another setter may have added it meanwhile
	defer m.mu.Unlock()
	n := m.n.Load()
	if i := m.find(label); i != 0 || n == uint32(len(m.codes)-1) {
		return i
	}
	m.codes[n+1].Store(label)
	m.n.Store(n + 1)
	return n + 1
}

// find returns label's index in codes, 0 if absent.
func (m *labelMirror) find(label uint32) uint32 {
	for i, n := uint32(1), m.n.Load(); i <= n; i++ {
		if m.codes[i].Load() == label {
			return i
		}
	}
	return 0
}

// get returns the mirrored label of slot id, 0 if unknown.
func (m *labelMirror) get(id uint64) uint32 {
	if w := m.slots.word(id/4, false); w != nil {
		if b := w.Load() >> (id % 4 * 8) & 0xff; b != 0 {
			return m.codes[b].Load()
		}
	}
	return 0
}

// skips reports whether a scan for label (0: any) passes over slot id:
// its mirrored label is known and is another.
func (m *labelMirror) skips(id uint64, label uint32) bool {
	if label == 0 {
		return false
	}
	l := m.get(id)
	return l != 0 && l != label
}
