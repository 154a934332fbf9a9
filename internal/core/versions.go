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

// --- read timestamps (volatile, lock-free) ---

// rtsBlockLen is how many consecutive record ids share one block of read
// timestamps.
const rtsBlockLen = 1024

type rtsBlock [rtsBlockLen]atomic.Uint64

// rtsTable tracks the latest reader timestamp per record (§5.1, the
// volatile rts of Fig 2): one atomic word per record id, in blocks
// allocated on the first bump of an id in them. A reader raises the word
// by CAS and a writer loads it — no lock on either side. Being volatile,
// it resets to zero after recovery, which conservatively allows the first
// post-restart writers to proceed.
type rtsTable struct {
	mu  sync.Mutex                                 // serializes growing dir and installing blocks
	dir atomic.Pointer[[]atomic.Pointer[rtsBlock]] // replaced by a longer copy to grow
}

func newRTSTable() *rtsTable { return &rtsTable{} }

// word returns id's read timestamp, or nil if its block was never
// allocated and alloc is false. A block installed before a lookup is in
// every directory published after it: growth copies under mu, installs
// go into the current directory under mu.
func (t *rtsTable) word(id uint64, alloc bool) *atomic.Uint64 {
	i := id / rtsBlockLen
	if dir := t.dir.Load(); dir != nil && i < uint64(len(*dir)) {
		if b := (*dir)[i].Load(); b != nil {
			return &b[id%rtsBlockLen]
		}
	}
	if !alloc {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := t.dir.Load()
	if dir == nil || i >= uint64(len(*dir)) {
		var old []atomic.Pointer[rtsBlock]
		if dir != nil {
			old = *dir
		}
		grown := make([]atomic.Pointer[rtsBlock], max(i+1, 2*uint64(len(old))))
		for j := range old {
			grown[j].Store(old[j].Load())
		}
		dir = &grown
		t.dir.Store(dir)
	}
	b := (*dir)[i].Load()
	if b == nil {
		b = new(rtsBlock)
		(*dir)[i].Store(b)
	}
	return &b[id%rtsBlockLen]
}

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
