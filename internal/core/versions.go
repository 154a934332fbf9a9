package core

import (
	"slices"
	"sync"

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

// --- read timestamps (volatile, sharded) ---

const rtsShards = 64

type rtsShard struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// rtsTable tracks the latest reader timestamp per record (§5.1). Being
// volatile, it resets to zero after recovery, which conservatively allows
// the first post-restart writers to proceed.
type rtsTable struct {
	shards [rtsShards]rtsShard
}

func newRTSTable() *rtsTable {
	t := &rtsTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]uint64)
	}
	return t
}

// bump raises the rts of id to ts if larger.
func (t *rtsTable) bump(id, ts uint64) {
	s := &t.shards[id%rtsShards]
	s.mu.Lock()
	if s.m[id] < ts {
		s.m[id] = ts
	}
	s.mu.Unlock()
}

// get returns the current rts of id (0 if never read).
func (t *rtsTable) get(id uint64) uint64 {
	s := &t.shards[id%rtsShards]
	s.mu.Lock()
	v := s.m[id]
	s.mu.Unlock()
	return v
}

// forget clears the rts of id (after the record slot is reused).
func (t *rtsTable) forget(id uint64) {
	s := &t.shards[id%rtsShards]
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}
