// Package index implements the secondary B+-tree indexes of §4.2 in the
// three variants compared in the paper's Fig 8:
//
//   - Volatile: every node in DRAM; fastest lookups, full rebuild needed
//     after a failure.
//   - Persistent: every node in PMem; no rebuild, but every level of a
//     lookup pays PMem latency.
//   - Hybrid (selective persistence, as in the FPTree): leaf nodes in
//     PMem, inner nodes in DRAM — at most one PMem-resident node is read
//     per lookup, and recovery only rebuilds the inner levels from the
//     persistent leaf chain.
//
// All tree nodes are cache-line aligned and sized to land in a 512-byte
// allocation class, a multiple of the 256-byte DCPMM block (DG3). Keys are
// typed values (dictionary codes for strings), payloads are record ids.
// Duplicate keys are supported by ordering and separating on the composite
// (key, id), which makes every stored entry unique.
//
// Because the index is a secondary structure that can always be rebuilt
// from the primary tables (§4.2), leaf updates are made durable with
// ordered flushes rather than full undo logging: a crash can leak a leaf
// block mid-split but never corrupts the reachable chain.
package index

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/storage"
)

// Kind selects the storage placement of tree nodes.
type Kind int

// Index variants (Fig 8).
const (
	Volatile Kind = iota
	Hybrid
	Persistent
)

func (k Kind) String() string {
	switch k {
	case Volatile:
		return "volatile"
	case Hybrid:
		return "hybrid"
	case Persistent:
		return "persistent"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrCorrupt reports an index whose persistent part is unusable; callers
// should drop and rebuild the index from primary data.
var ErrCorrupt = errors.New("index: corrupt persistent index")

// ErrDeltaImage reports a tree whose header links a delta region: the
// image was written by the removed LSM-style delta layer, and ops it
// published there never reached the leaf chain. Callers must rebuild the
// index from primary data rather than serve the incomplete chain.
var ErrDeltaImage = errors.New("index: image uses the removed delta layer; rebuild the index")

// Node geometry. Both node types occupy 448 user bytes, which lands in
// the 512-byte allocator class together with the 64-byte block header.
const (
	nodeBytes = 448
	nodeBlock = 512 // nodeBytes plus the allocator's 64-byte block header

	// Leaf layout.
	lfNext    = 0  // next leaf offset (0 = end of chain)
	lfCount   = 8  // number of entries
	lfEntries = 16 // entries: [type u64][raw u64][id u64]
	entrySize = 24
	leafCap   = (nodeBytes - lfEntries) / entrySize // 18

	// Inner layout: separators are full (key, id) entries.
	inCount    = 0 // number of separators
	inSeps     = 8 // separators: [type u64][raw u64][id u64]
	sepSize    = 24
	innerCap   = 12                          // separators per inner node
	inChildren = inSeps + innerCap*sepSize   // child offsets: (innerCap+1) × 8
	innerEnd   = inChildren + (innerCap+1)*8 // = 400 <= nodeBytes
)

// Persistent index header (allocated in the leaf pool).
const (
	ihMagic    = 0
	ihKind     = 8
	ihLeafHead = 16
	ihRoot     = 24 // root node offset (persistent variant only)
	ihHeight   = 32 // 0 = root is a leaf (persistent variant only)
	ihDelta    = 40 // delta-region offset written by the removed delta layer; Open refuses non-zero
	ihSize     = 64

	indexMagic = 0x49445831 // "IDX1"
)

// entry is a composite (key, id) element; the unit of ordering.
type entry struct {
	key storage.Value
	id  uint64
}

func (e entry) less(o entry) bool {
	if e.key.Less(o.key) {
		return true
	}
	if o.key.Less(e.key) {
		return false
	}
	return e.id < o.id
}

// Tree is a B+-tree index. All methods are safe for concurrent use; a
// single RWMutex serializes writers.
type Tree struct {
	kind Kind

	// Leaves live here: the graph's PMem pool for Hybrid/Persistent, a
	// private DRAM pool for Volatile.
	leafPool *pmemobj.Pool
	leafDev  *pmem.Device
	durable  bool // flush leaf writes

	// Inner nodes live here: same as leafPool for Persistent, a private
	// DRAM pool (the arena) otherwise. grow swaps both under mu.
	innerPool *pmemobj.Pool
	innerDev  *pmem.Device

	hdr uint64 // persistent header offset in leafPool (0 for Volatile)

	mu     sync.RWMutex
	root   uint64
	height int // 0 = root is a leaf
	count  uint64

	// bulkLeaves, when non-nil, collects leaf offsets persistLeaf would
	// have flushed so InsertMany can flush each touched leaf once per
	// sweep (flushBulk).
	bulkLeaves map[uint64]struct{}

	closed bool // Close ran: a grown arena stays out of the pool registry
}

// Options configures tree creation. It has no settings.
type Options struct{}

// A tree's arena — the private DRAM pool holding a Hybrid tree's inner
// nodes and a Volatile tree's every node — is sized by use: Create starts
// it at minArenaBytes, Open at twice what the rebuilt inner levels take,
// and alloc doubles a full one. Nothing but Alloc's own transaction logs
// there, which snapshots at most a free-list head and a block header.
const minArenaBytes = 64 << 10

func newArena(size int) (*pmemobj.Pool, error) {
	dev := pmem.New(pmem.Config{Name: "index-dram", Size: size})
	logCap := pmemobj.LogHeaderBytes + pmemobj.SnapshotCost(8) + pmemobj.SnapshotCost(64)
	return pmemobj.Create(dev, pmemobj.Options{LogCap: logCap})
}

// Create builds an empty tree. For Hybrid and Persistent kinds, leaves
// (and the header) are allocated in pool; the Volatile kind ignores pool
// and keeps everything in a private DRAM arena.
func Create(kind Kind, pool *pmemobj.Pool, opts Options) (*Tree, error) {
	t := &Tree{kind: kind}
	switch kind {
	case Volatile, Hybrid:
		p, err := newArena(minArenaBytes)
		if err != nil {
			return nil, err
		}
		t.leafPool, t.innerPool = p, p
		if kind == Hybrid {
			t.leafPool, t.durable = pool, true
		}
	case Persistent:
		t.leafPool, t.innerPool = pool, pool
		t.durable = true
	default:
		return nil, fmt.Errorf("index: unknown kind %d", kind)
	}
	t.leafDev = t.leafPool.Device()
	t.innerDev = t.innerPool.Device()

	leaf, err := t.alloc(t.leafPool)
	if err != nil {
		return nil, err
	}
	t.root = leaf
	t.height = 0

	if kind != Volatile {
		hdr, err := t.leafPool.Alloc(ihSize)
		if err != nil {
			return nil, err
		}
		d := t.leafDev
		d.WriteU64(hdr+ihKind, uint64(kind))
		d.WriteU64(hdr+ihLeafHead, leaf)
		d.WriteU64(hdr+ihRoot, leaf)
		d.WriteU64(hdr+ihHeight, 0)
		d.WriteU64(hdr+ihMagic, indexMagic)
		d.Persist(hdr, ihSize)
		t.hdr = hdr
	}
	return t, nil
}

// Open re-attaches to a persistent index created earlier in pool. For the
// Hybrid kind this rebuilds the DRAM inner levels from the persistent
// leaf chain — the fast recovery path measured in §7.4. A Volatile index
// cannot be opened; it must be recreated and refilled.
func Open(kind Kind, pool *pmemobj.Pool, hdr uint64, opts Options) (*Tree, error) {
	if kind == Volatile {
		return nil, errors.New("index: volatile index cannot be reopened; rebuild it")
	}
	d := pool.Device()
	if d.ReadU64(hdr+ihMagic) != indexMagic {
		return nil, ErrCorrupt
	}
	if got := Kind(d.ReadU64(hdr + ihKind)); got != kind {
		return nil, fmt.Errorf("%w: stored kind %v, requested %v", ErrCorrupt, got, kind)
	}
	if d.ReadU64(hdr+ihDelta) != 0 {
		return nil, ErrDeltaImage
	}
	t := &Tree{kind: kind, leafPool: pool, leafDev: d, durable: true, hdr: hdr}
	switch kind {
	case Persistent:
		t.innerPool, t.innerDev = pool, d
		t.root = d.ReadU64(hdr + ihRoot)
		t.height = int(d.ReadU64(hdr + ihHeight))
		t.count = t.countLeafChain()
	case Hybrid:
		if err := t.rebuildInner(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Close unregisters the tree's arena (a Hybrid tree's inner nodes, a
// Volatile tree's everything) so a dropped tree's arena can be collected.
// The shared leaf pool belongs to the caller and is never closed.
// Idempotent; the tree itself stays usable, so readers still holding it
// are unaffected.
func (t *Tree) Close() {
	if t.kind == Persistent {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.innerPool.Close()
}

// alloc allocates a node in p, first doubling the arena if p is the
// arena and full. The caller holds t.mu for writing or owns t alone.
func (t *Tree) alloc(p *pmemobj.Pool) (uint64, error) {
	if p == t.leafPool {
		t.flushBulk() // the allocation drains the leaf device
	}
	off, err := p.Alloc(nodeBytes)
	if t.kind == Persistent || p != t.innerPool || !errors.Is(err, pmemobj.ErrOutOfMemory) {
		return off, err
	}
	if err := t.grow(); err != nil {
		return 0, fmt.Errorf("index: doubling the DRAM arena: %w", err)
	}
	return t.innerPool.Alloc(nodeBytes)
}

// grow copies the arena into a device twice its size and re-attaches the
// copy in its place. Offsets survive the copy, so a split's remembered
// path stays valid, and readers (under t.mu.RLock) never see the swap.
// The copy keeps the pool's UUID, so it replaces the old pool in the
// pmemobj registry — or stays out of it once the tree is closed.
func (t *Tree) grow() error {
	var img bytes.Buffer
	img.Grow(t.innerDev.Size() + 16)
	if err := t.innerDev.Save(&img); err != nil {
		return err
	}
	dev := pmem.New(pmem.Config{Name: t.innerDev.Name(), Size: 2 * t.innerDev.Size()})
	if err := dev.Load(&img); err != nil {
		return err
	}
	p, err := pmemobj.Open(dev)
	if err != nil {
		return err
	}
	if t.closed {
		p.Close()
	}
	if t.leafPool == t.innerPool {
		t.leafPool, t.leafDev = p, dev
	}
	t.innerPool, t.innerDev = p, dev
	return nil
}

// Offset returns the persistent header offset (0 for volatile trees).
func (t *Tree) Offset() uint64 { return t.hdr }

// Kind returns the tree variant.
func (t *Tree) Kind() Kind { return t.kind }

// Len returns the number of entries.
func (t *Tree) Len() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

func (t *Tree) persistLeaf(off uint64) {
	if !t.durable {
		return
	}
	if t.bulkLeaves != nil {
		t.bulkLeaves[off] = struct{}{} // flushBulk flushes it
		return
	}
	t.leafDev.Persist(off, nodeBytes)
}

// flushBulk flushes, in offset order, the leaves InsertMany has dirtied
// since the last call. It runs before anything drains the leaf device —
// a leaf left dirty across a Drain would read as leaked under strict
// flush checking — and once at the end of the sweep.
func (t *Tree) flushBulk() {
	if len(t.bulkLeaves) == 0 {
		return
	}
	offs := make([]uint64, 0, len(t.bulkLeaves))
	for off := range t.bulkLeaves {
		offs = append(offs, off)
	}
	clear(t.bulkLeaves)
	slices.Sort(offs)
	for _, off := range offs {
		t.leafDev.Flush(off, nodeBytes)
	}
}

func (t *Tree) persistInner(node uint64) {
	if t.kind == Persistent {
		t.flushBulk() // inner nodes share the leaf device
		t.innerDev.Persist(node, nodeBytes)
	}
}

// --- node accessors ---

func (t *Tree) leafEntry(leaf uint64, i int) entry {
	base := leaf + lfEntries + uint64(i)*entrySize
	return entry{
		key: storage.Value{Type: storage.ValueType(t.leafDev.ReadU64(base)), Raw: t.leafDev.ReadU64(base + 8)},
		id:  t.leafDev.ReadU64(base + 16),
	}
}

//pmem:deferred-flush callers persist the whole node via persistLeaf before it becomes reachable/unlocked
func (t *Tree) setLeafEntry(leaf uint64, i int, e entry) {
	base := leaf + lfEntries + uint64(i)*entrySize
	t.leafDev.WriteU64(base, uint64(e.key.Type))
	t.leafDev.WriteU64(base+8, e.key.Raw)
	t.leafDev.WriteU64(base+16, e.id)
}

func (t *Tree) leafCount(leaf uint64) int { return int(t.leafDev.ReadU64(leaf + lfCount)) }
func (t *Tree) leafNext(leaf uint64) uint64 {
	return t.leafDev.ReadU64(leaf + lfNext)
}

func (t *Tree) sep(node uint64, i int) entry {
	base := node + inSeps + uint64(i)*sepSize
	return entry{
		key: storage.Value{Type: storage.ValueType(t.innerDev.ReadU64(base)), Raw: t.innerDev.ReadU64(base + 8)},
		id:  t.innerDev.ReadU64(base + 16),
	}
}

//pmem:deferred-flush callers persist the whole node via persistInner; for Hybrid trees innerDev is DRAM
func (t *Tree) setSep(node uint64, i int, e entry) {
	base := node + inSeps + uint64(i)*sepSize
	t.innerDev.WriteU64(base, uint64(e.key.Type))
	t.innerDev.WriteU64(base+8, e.key.Raw)
	t.innerDev.WriteU64(base+16, e.id)
}

func (t *Tree) innerCount(node uint64) int { return int(t.innerDev.ReadU64(node + inCount)) }

func (t *Tree) child(node uint64, i int) uint64 {
	return t.innerDev.ReadU64(node + inChildren + uint64(i)*8)
}

//pmem:deferred-flush callers persist the whole node via persistInner; for Hybrid trees innerDev is DRAM
func (t *Tree) setChild(node uint64, i int, off uint64) {
	t.innerDev.WriteU64(node+inChildren+uint64(i)*8, off)
}

// findChild returns the child slot for e: the number of separators <= e.
// Entries in child i satisfy sep[i-1] <= e < sep[i].
func (t *Tree) findChild(node uint64, e entry) int {
	lo, hi := 0, t.innerCount(node)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.sep(node, mid).less(e) || t.sep(node, mid) == e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

type pathEnt struct {
	node uint64
	slot int
}

// leafFor descends to the unique leaf where e belongs, remembering the
// path when path != nil.
func (t *Tree) leafFor(e entry, path *[]pathEnt) uint64 {
	node := t.root
	for lvl := t.height; lvl > 0; lvl-- {
		slot := t.findChild(node, e)
		if path != nil {
			*path = append(*path, pathEnt{node, slot})
		}
		node = t.child(node, slot)
	}
	return node
}

// lowerBound returns the leaf that may contain the first entry >= e.
func (t *Tree) lowerBound(k storage.Value) uint64 {
	return t.leafFor(entry{key: k, id: 0}, nil)
}

// Lookup returns every record id stored under key k, in id order.
func (t *Tree) Lookup(k storage.Value) []uint64 { return t.LookupAppend(nil, k) }

// LookupAppend is Lookup appending the ids to out.
func (t *Tree) LookupAppend(out []uint64, k storage.Value) []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.lowerBound(k)
	for leaf != 0 {
		n := t.leafCount(leaf)
		for i := 0; i < n; i++ {
			e := t.leafEntry(leaf, i)
			if e.key.Less(k) {
				continue
			}
			if k.Less(e.key) {
				return out
			}
			out = append(out, e.id)
		}
		leaf = t.leafNext(leaf)
	}
	return out
}

// LookupFirst returns the smallest id under k, if any. It is the common
// point lookup of the SR queries.
func (t *Tree) LookupFirst(k storage.Value) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.lowerBound(k)
	for leaf != 0 {
		n := t.leafCount(leaf)
		for i := 0; i < n; i++ {
			e := t.leafEntry(leaf, i)
			if e.key.Less(k) {
				continue
			}
			if k.Less(e.key) {
				return 0, false
			}
			return e.id, true
		}
		leaf = t.leafNext(leaf)
	}
	return 0, false
}

// Contains reports whether the exact (k, id) pair is present.
func (t *Tree) Contains(k storage.Value, id uint64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.containsLocked(entry{key: k, id: id})
}

// Range calls fn for every entry with lo <= key <= hi in (key, id) order,
// stopping early if fn returns false.
func (t *Tree) Range(lo, hi storage.Value, fn func(k storage.Value, id uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.lowerBound(lo)
	for leaf != 0 {
		n := t.leafCount(leaf)
		for i := 0; i < n; i++ {
			e := t.leafEntry(leaf, i)
			if e.key.Less(lo) {
				continue
			}
			if hi.Less(e.key) {
				return
			}
			if !fn(e.key, e.id) {
				return
			}
		}
		leaf = t.leafNext(leaf)
	}
}

// Scan visits every entry in (key, id) order.
func (t *Tree) Scan(fn func(k storage.Value, id uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.leftmostLeaf()
	for leaf != 0 {
		n := t.leafCount(leaf)
		for i := 0; i < n; i++ {
			e := t.leafEntry(leaf, i)
			if !fn(e.key, e.id) {
				return
			}
		}
		leaf = t.leafNext(leaf)
	}
}

func (t *Tree) leftmostLeaf() uint64 {
	node := t.root
	for lvl := t.height; lvl > 0; lvl-- {
		node = t.child(node, 0)
	}
	return node
}

// Insert adds (k, id), persisting every touched leaf. Inserting an
// already-present pair is a no-op.
func (t *Tree) Insert(k storage.Value, id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(entry{key: k, id: id})
}

func (t *Tree) insertLocked(e entry) error {
	var path []pathEnt
	leaf := t.leafFor(e, &path)
	n := t.leafCount(leaf)

	slot := n
	for i := 0; i < n; i++ {
		cur := t.leafEntry(leaf, i)
		if cur == e {
			return nil // already present
		}
		if e.less(cur) {
			slot = i
			break
		}
	}

	if n < leafCap {
		for i := n; i > slot; i-- {
			t.setLeafEntry(leaf, i, t.leafEntry(leaf, i-1))
		}
		t.setLeafEntry(leaf, slot, e)
		t.leafDev.WriteU64(leaf+lfCount, uint64(n+1))
		t.persistLeaf(leaf)
		t.count++
		return nil
	}

	// Split the leaf: move the upper half to a fresh right sibling. The
	// new leaf is fully persisted before the old leaf links to it, so a
	// crash can only leak the new block, never break the chain.
	right, err := t.alloc(t.leafPool)
	if err != nil {
		return err
	}
	mid := leafCap / 2
	for i := mid; i < n; i++ {
		t.setLeafEntry(right, i-mid, t.leafEntry(leaf, i))
	}
	t.leafDev.WriteU64(right+lfCount, uint64(n-mid))
	t.leafDev.WriteU64(right+lfNext, t.leafNext(leaf))
	t.persistLeaf(right)

	t.leafDev.WriteU64(leaf+lfCount, uint64(mid))
	t.leafDev.WriteU64(leaf+lfNext, right)
	t.persistLeaf(leaf)

	sep := t.leafEntry(right, 0)
	if e.less(sep) {
		t.insertIntoLeaf(leaf, e)
	} else {
		t.insertIntoLeaf(right, e)
	}
	t.count++

	return t.insertUpward(path, sep, right)
}

// InsertMany bulk-inserts entries, flushing each touched leaf once per
// sweep and closing the batch with one drain, instead of a persist per
// insert. A sweep ends before every drain of the leaf device (a leaf
// allocation; a Persistent tree's inner-node persist) and at the end of
// the batch. CreateIndex uses it to backfill a shard's tree in one call.
func (t *Tree) InsertMany(ents []Entry) error {
	if len(ents) == 0 {
		return nil // nothing to flush, so no drain either
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.durable {
		t.bulkLeaves = make(map[uint64]struct{})
		defer func() {
			t.flushBulk()
			t.bulkLeaves = nil
			t.leafDev.Drain()
		}()
	}
	for _, ent := range ents {
		if err := t.insertLocked(entry{key: ent.Key, id: ent.ID}); err != nil {
			return err
		}
	}
	return nil
}

// insertIntoLeaf inserts into a leaf known to have room.
func (t *Tree) insertIntoLeaf(leaf uint64, e entry) {
	n := t.leafCount(leaf)
	slot := n
	for i := 0; i < n; i++ {
		if e.less(t.leafEntry(leaf, i)) {
			slot = i
			break
		}
	}
	for i := n; i > slot; i-- {
		t.setLeafEntry(leaf, i, t.leafEntry(leaf, i-1))
	}
	t.setLeafEntry(leaf, slot, e)
	t.leafDev.WriteU64(leaf+lfCount, uint64(n+1))
	t.persistLeaf(leaf)
}

// insertUpward threads a split (sep, right) up the remembered path.
func (t *Tree) insertUpward(path []pathEnt, sep entry, right uint64) error {
	for lvl := len(path) - 1; lvl >= 0; lvl-- {
		node, slot := path[lvl].node, path[lvl].slot
		n := t.innerCount(node)
		if n < innerCap {
			for i := n; i > slot; i-- {
				t.setSep(node, i, t.sep(node, i-1))
				t.setChild(node, i+1, t.child(node, i))
			}
			t.setSep(node, slot, sep)
			t.setChild(node, slot+1, right)
			t.innerDev.WriteU64(node+inCount, uint64(n+1))
			t.persistInner(node)
			return nil
		}
		// Split the inner node around its middle separator, which moves up.
		newRight, err := t.alloc(t.innerPool)
		if err != nil {
			return err
		}
		seps := make([]entry, 0, n+1)
		kids := make([]uint64, 0, n+2)
		kids = append(kids, t.child(node, 0))
		for i := 0; i < n; i++ {
			seps = append(seps, t.sep(node, i))
			kids = append(kids, t.child(node, i+1))
		}
		seps = append(seps[:slot], append([]entry{sep}, seps[slot:]...)...)
		kids = append(kids[:slot+1], append([]uint64{right}, kids[slot+1:]...)...)

		mid := len(seps) / 2
		up := seps[mid]

		t.innerDev.WriteU64(node+inCount, uint64(mid))
		t.setChild(node, 0, kids[0])
		for i := 0; i < mid; i++ {
			t.setSep(node, i, seps[i])
			t.setChild(node, i+1, kids[i+1])
		}

		rightSeps := seps[mid+1:]
		t.innerDev.WriteU64(newRight+inCount, uint64(len(rightSeps)))
		t.setChild(newRight, 0, kids[mid+1])
		for i, rs := range rightSeps {
			t.setSep(newRight, i, rs)
			t.setChild(newRight, i+1, kids[mid+2+i])
		}
		t.persistInner(newRight)
		t.persistInner(node)

		sep, right = up, newRight
	}

	// Root split: grow the tree by one level.
	newRoot, err := t.alloc(t.innerPool)
	if err != nil {
		return err
	}
	t.innerDev.WriteU64(newRoot+inCount, 1)
	t.setChild(newRoot, 0, t.root)
	t.setChild(newRoot, 1, right)
	t.setSep(newRoot, 0, sep)
	t.persistInner(newRoot)
	t.root = newRoot
	t.height++
	t.persistMeta()
	return nil
}

func (t *Tree) persistMeta() {
	if t.kind != Persistent {
		return
	}
	d := t.leafDev
	d.WriteU64(t.hdr+ihRoot, t.root)
	d.WriteU64(t.hdr+ihHeight, uint64(t.height))
	d.Persist(t.hdr, ihSize)
}

// Delete removes the exact (k, id) pair, reporting whether it was found.
// Leaves are allowed to underflow (no rebalancing): the index is a
// secondary structure and rebuilt from primary data if it degrades.
func (t *Tree) Delete(k storage.Value, id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := entry{key: k, id: id}
	leaf := t.leafFor(e, nil)
	n := t.leafCount(leaf)
	for i := 0; i < n; i++ {
		if t.leafEntry(leaf, i) == e {
			for j := i; j < n-1; j++ {
				t.setLeafEntry(leaf, j, t.leafEntry(leaf, j+1))
			}
			t.leafDev.WriteU64(leaf+lfCount, uint64(n-1))
			t.persistLeaf(leaf)
			t.count--
			return true
		}
	}
	return false
}

// countLeafChain counts entries by walking the persistent leaf chain.
func (t *Tree) countLeafChain() uint64 {
	var c uint64
	leaf := t.leafDev.ReadU64(t.hdr + ihLeafHead)
	for leaf != 0 {
		c += t.leafDev.ReadU64(leaf + lfCount)
		leaf = t.leafNext(leaf)
	}
	return c
}

// rebuildInner reconstructs the DRAM inner levels of a Hybrid tree from
// the persistent leaf chain into a fresh arena sized from the leaf count
// — the §7.4 recovery path. Complexity is one sequential pass over the
// leaves plus O(#leaves) DRAM work.
//
//pmem:deferred-flush Hybrid-only recovery path: innerDev is the volatile DRAM pool, so flushing is meaningless
func (t *Tree) rebuildInner() error {
	type item struct {
		first entry
		off   uint64
	}
	var level []item
	leaf := t.leafDev.ReadU64(t.hdr + ihLeafHead)
	if leaf == 0 {
		return ErrCorrupt
	}
	first := leaf
	var c uint64
	for leaf != 0 {
		n := t.leafCount(leaf)
		c += uint64(n)
		if n > 0 {
			level = append(level, item{t.leafEntry(leaf, 0), leaf})
		}
		leaf = t.leafNext(leaf)
	}
	t.count = c
	nodes := 0
	for n := len(level); n > 1; nodes += n {
		n = (n + innerCap) / (innerCap + 1) // the level above n nodes
	}
	size := minArenaBytes
	for size < 2*nodes*nodeBlock {
		size *= 2
	}
	p, err := newArena(size)
	if err != nil {
		return err
	}
	t.innerPool, t.innerDev = p, p.Device()
	if len(level) == 0 {
		// All leaves empty: point the root at the first leaf.
		t.root = first
		t.height = 0
		return nil
	}
	// Lookups descending for entries smaller than the first leaf's first
	// key must still reach the leftmost leaf of the chain.
	level[0].off = first
	t.height = 0
	for len(level) > 1 {
		var next []item
		for i := 0; i < len(level); i += innerCap + 1 {
			end := i + innerCap + 1
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			node, err := t.alloc(t.innerPool)
			if err != nil {
				return err
			}
			t.innerDev.WriteU64(node+inCount, uint64(len(group)-1))
			t.setChild(node, 0, group[0].off)
			for j := 1; j < len(group); j++ {
				t.setSep(node, j-1, group[j].first)
				t.setChild(node, j, group[j].off)
			}
			next = append(next, item{group[0].first, node})
		}
		level = next
		t.height++
	}
	t.root = level[0].off
	return nil
}
