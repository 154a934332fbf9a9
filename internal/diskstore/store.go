package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Record layout: fixed 64-byte records, 63 per page (the first 64 bytes
// of every page are the page header). Node, relationship and property
// records live in disjoint page-id spaces.
const (
	recSize     = 64
	recsPerPage = PageSize/recSize - 1

	nodeSpace = uint64(0) << 40
	relSpace  = uint64(1) << 40
	propSpace = uint64(2) << 40
)

// NilID marks an empty reference.
const NilID = ^uint64(0)

// Errors.
var (
	ErrNotFound = errors.New("diskstore: not found")
	ErrNoIndex  = errors.New("diskstore: no such index")
)

// Value mirrors the property value types of the main engine.
type Value struct {
	Type uint32 // 0 nil, 1 int, 2 float, 3 bool, 4 string-code
	Raw  uint64
}

// record field offsets (within the 64-byte record).
const (
	fLabel = 0 // u32
	fInUse = 4 // u32 (1 = live)
	// node:
	fOut   = 8
	fIn    = 16
	fProps = 24
	// rel:
	fSrc     = 8
	fDst     = 16
	fNextSrc = 24
	fNextDst = 32
	fRProps  = 40
	// prop cell: next u64 at 8; 3 items × 16 bytes at 16
	fPNext  = 8
	fPItems = 16
)

// Store is the disk-based graph store.
type Store struct {
	mu    sync.Mutex
	disk  *disk
	pool  *bufferPool
	wal   *wal
	stats DiskStats

	nextNode, nextRel, nextProp uint64

	// DRAM dictionary for labels/keys/strings (rebuilt from the WAL on
	// recovery).
	dictFwd map[string]uint64
	dictRev []string

	// DRAM secondary indexes: (label, key) -> value -> ids.
	indexes map[[2]uint64]map[Value][]uint64
}

// Config configures the store.
type Config struct {
	// BufferPages sizes the buffer pool (default 4096 pages = 16 MiB).
	BufferPages int
	// Lat overrides the device latencies.
	Lat *Latencies
}

// Open creates an empty store.
func Open(cfg Config) *Store {
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 4096
	}
	lat := DefaultLatencies()
	if cfg.Lat != nil {
		lat = *cfg.Lat
	}
	s := &Store{
		dictFwd: make(map[string]uint64),
		dictRev: []string{""},
		indexes: make(map[[2]uint64]map[Value][]uint64),
	}
	s.disk = newDisk(lat, &s.stats)
	s.pool = newBufferPool(s.disk, cfg.BufferPages)
	s.wal = newWAL(s.disk)
	return s
}

// Stats returns device operation counters.
func (s *Store) Stats() *DiskStats { return &s.stats }

func (s *Store) encode(str string) uint64 {
	if c, ok := s.dictFwd[str]; ok {
		return c
	}
	c := uint64(len(s.dictRev))
	s.dictFwd[str] = c
	s.dictRev = append(s.dictRev, str)
	return c
}

func (s *Store) decode(code uint64) string {
	if code < uint64(len(s.dictRev)) {
		return s.dictRev[code]
	}
	return ""
}

// pageOf locates a record: page id and in-page offset.
func pageOf(space, id uint64) (uint64, int) {
	return space + id/recsPerPage, 64 + int(id%recsPerPage)*recSize
}

func (s *Store) rec(space, id uint64) ([]byte, uint64) {
	pid, off := pageOf(space, id)
	page := s.pool.get(pid)
	return page[off : off+recSize], pid
}

func getU64(rec []byte, off int) uint64    { return binary.LittleEndian.Uint64(rec[off:]) }
func putU64(rec []byte, off int, v uint64) { binary.LittleEndian.PutUint64(rec[off:], v) }
func getU32(rec []byte, off int) uint32    { return binary.LittleEndian.Uint32(rec[off:]) }
func putU32(rec []byte, off int, v uint32) { binary.LittleEndian.PutUint32(rec[off:], v) }

// --- transactions (single-writer, WAL at commit) ---

// Tx is a disk-store transaction. The store is single-writer: Begin
// blocks until the previous transaction finishes.
type Tx struct {
	s    *Store
	done bool
	ops  int
}

// Begin starts a transaction.
func (s *Store) Begin() *Tx {
	s.mu.Lock()
	return &Tx{s: s}
}

// Commit flushes the WAL (fsync latency) and releases the store.
func (tx *Tx) Commit() error {
	if tx.done {
		return errors.New("diskstore: transaction done")
	}
	tx.done = true
	if tx.ops > 0 {
		tx.s.wal.commit()
	}
	tx.s.mu.Unlock()
	return nil
}

// Abort releases the store. The WAL tail is discarded; dirty pages may
// hold uncommitted data, which this performance-baseline store tolerates
// (the paper's baseline is evaluated for speed, not recovery).
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.s.wal.discard()
	tx.s.mu.Unlock()
}

func (tx *Tx) encodeValue(v any) Value {
	switch x := v.(type) {
	case int:
		return Value{Type: 1, Raw: uint64(int64(x))}
	case int64:
		return Value{Type: 1, Raw: uint64(x)}
	case float64:
		return Value{Type: 2, Raw: floatBits(x)}
	case bool:
		if x {
			return Value{Type: 3, Raw: 1}
		}
		return Value{Type: 3, Raw: 0}
	case string:
		return Value{Type: 4, Raw: tx.s.encode(x)}
	default:
		return Value{}
	}
}

// AddNode inserts a node and returns its id.
func (tx *Tx) AddNode(label string, props map[string]any) uint64 {
	s := tx.s
	id := s.nextNode
	s.nextNode++
	// Write the property chain first: a buffer-pool fetch may evict any
	// previously returned frame, so record slices are never used across
	// pool operations.
	propHead := tx.writeProps(props)
	rec, pid := s.rec(nodeSpace, id)
	putU32(rec, fLabel, uint32(s.encode(label)))
	putU32(rec, fInUse, 1)
	putU64(rec, fOut, NilID)
	putU64(rec, fIn, NilID)
	putU64(rec, fProps, propHead)
	s.pool.markDirty(pid)
	s.wal.logOp(opAddNode, id, label, props)
	tx.ops++
	s.indexAdd(uint64(getU32(rec, fLabel)), id, props)
	return id
}

// AddRel inserts a relationship and links it into both adjacency lists.
func (tx *Tx) AddRel(src, dst uint64, label string, props map[string]any) uint64 {
	s := tx.s
	id := s.nextRel
	s.nextRel++
	propHead := tx.writeProps(props)

	srcRec, srcPid := s.rec(nodeSpace, src)
	oldOut := getU64(srcRec, fOut)
	putU64(srcRec, fOut, id)
	s.pool.markDirty(srcPid)

	dstRec, dstPid := s.rec(nodeSpace, dst)
	oldIn := getU64(dstRec, fIn)
	putU64(dstRec, fIn, id)
	s.pool.markDirty(dstPid)

	rec, pid := s.rec(relSpace, id)
	putU32(rec, fLabel, uint32(s.encode(label)))
	putU32(rec, fInUse, 1)
	putU64(rec, fSrc, src)
	putU64(rec, fDst, dst)
	putU64(rec, fNextSrc, oldOut)
	putU64(rec, fNextDst, oldIn)
	putU64(rec, fRProps, propHead)
	s.pool.markDirty(pid)
	s.wal.logRel(id, src, dst, label, props)
	tx.ops++
	return id
}

// SetNodeProps merges property updates into a node.
func (tx *Tx) SetNodeProps(id uint64, props map[string]any) error {
	s := tx.s
	rec, _ := s.rec(nodeSpace, id)
	if getU32(rec, fInUse) == 0 {
		return fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	old := s.readProps(getU64(rec, fProps))
	label := uint64(getU32(rec, fLabel))
	s.indexRemoveVals(label, id, old)
	for k, v := range props {
		if v == nil {
			delete(old, k)
		} else {
			old[k] = v
		}
	}
	head := tx.writeProps(old)
	rec, pid := s.rec(nodeSpace, id) // refetch: writeProps may have evicted
	putU64(rec, fProps, head)
	s.pool.markDirty(pid)
	s.wal.logOp(opSetProps, id, "", props)
	tx.ops++
	s.indexAdd(label, id, old)
	return nil
}

// writeProps stores a property map as a chain of 64-byte cells, returning
// the head id.
func (tx *Tx) writeProps(props map[string]any) uint64 {
	s := tx.s
	if len(props) == 0 {
		return NilID
	}
	type kv struct {
		k uint64
		v Value
	}
	items := make([]kv, 0, len(props))
	for k, v := range props {
		items = append(items, kv{s.encode(k), tx.encodeValue(v)})
	}
	// Allocate all cell ids up front so each cell's next pointer is known
	// when its page is resident (frames may be evicted between fetches).
	nCells := (len(items) + 2) / 3
	ids := make([]uint64, nCells)
	for i := range ids {
		ids[i] = s.nextProp
		s.nextProp++
	}
	for ci := 0; ci < nCells; ci++ {
		rec, pid := s.rec(propSpace, ids[ci])
		putU32(rec, fInUse, 1)
		next := NilID
		if ci+1 < nCells {
			next = ids[ci+1]
		}
		putU64(rec, fPNext, next)
		for j := 0; j < 3; j++ {
			base := fPItems + j*16
			if k := ci*3 + j; k < len(items) {
				it := items[k]
				putU32(rec, base, uint32(it.k))
				putU32(rec, base+4, it.v.Type)
				putU64(rec, base+8, it.v.Raw)
			} else {
				putU32(rec, base, 0)
				putU32(rec, base+4, 0)
				putU64(rec, base+8, 0)
			}
		}
		s.pool.markDirty(pid)
	}
	return ids[0]
}

func (s *Store) readProps(head uint64) map[string]any {
	out := map[string]any{}
	for id := head; id != NilID; {
		rec, _ := s.rec(propSpace, id)
		for j := 0; j < 3; j++ {
			base := fPItems + j*16
			key := getU32(rec, base)
			if key == 0 {
				continue
			}
			v := Value{Type: getU32(rec, base+4), Raw: getU64(rec, base+8)}
			out[s.decode(uint64(key))] = s.decodeValue(v)
		}
		id = getU64(rec, fPNext)
	}
	return out
}

func (s *Store) decodeValue(v Value) any {
	switch v.Type {
	case 1:
		return int64(v.Raw)
	case 2:
		return floatFromBits(v.Raw)
	case 3:
		return v.Raw != 0
	case 4:
		return s.decode(v.Raw)
	default:
		return nil
	}
}

// --- reads (must run inside a transaction for the single-writer lock) ---

// NodeData is a decoded node.
type NodeData struct {
	ID    uint64
	Label string
	Props map[string]any
}

// RelData is a decoded relationship.
type RelData struct {
	ID       uint64
	Label    string
	Src, Dst uint64
	Props    map[string]any
}

// Node reads a node.
func (tx *Tx) Node(id uint64) (NodeData, error) {
	s := tx.s
	if id >= s.nextNode {
		return NodeData{}, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	rec, _ := s.rec(nodeSpace, id)
	if getU32(rec, fInUse) == 0 {
		return NodeData{}, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return NodeData{
		ID:    id,
		Label: s.decode(uint64(getU32(rec, fLabel))),
		Props: s.readProps(getU64(rec, fProps)),
	}, nil
}

// NodeProp reads one property of a node without decoding the full set.
func (tx *Tx) NodeProp(id uint64, key string) (any, bool) {
	s := tx.s
	kc, ok := s.dictFwd[key]
	if !ok {
		return nil, false
	}
	rec, _ := s.rec(nodeSpace, id)
	if getU32(rec, fInUse) == 0 {
		return nil, false
	}
	for pid := getU64(rec, fProps); pid != NilID; {
		prec, _ := s.rec(propSpace, pid)
		for j := 0; j < 3; j++ {
			base := fPItems + j*16
			if uint64(getU32(prec, base)) == kc {
				return s.decodeValue(Value{Type: getU32(prec, base+4), Raw: getU64(prec, base+8)}), true
			}
		}
		pid = getU64(prec, fPNext)
	}
	return nil, false
}

// Out visits the outgoing relationships of a node.
func (tx *Tx) Out(id uint64, label string, fn func(RelData) bool) {
	tx.adj(id, label, true, fn)
}

// In visits the incoming relationships of a node.
func (tx *Tx) In(id uint64, label string, fn func(RelData) bool) {
	tx.adj(id, label, false, fn)
}

func (tx *Tx) adj(id uint64, label string, out bool, fn func(RelData) bool) {
	s := tx.s
	var labelCode uint64
	if label != "" {
		c, ok := s.dictFwd[label]
		if !ok {
			return
		}
		labelCode = c
	}
	rec, _ := s.rec(nodeSpace, id)
	head, next := fOut, fNextSrc
	if !out {
		head, next = fIn, fNextDst
	}
	for rid := getU64(rec, head); rid != NilID; {
		rrec, _ := s.rec(relSpace, rid)
		cur := rid
		rid = getU64(rrec, next)
		if getU32(rrec, fInUse) == 0 {
			continue
		}
		if labelCode != 0 && uint64(getU32(rrec, fLabel)) != labelCode {
			continue
		}
		rd := RelData{
			ID:    cur,
			Label: s.decode(uint64(getU32(rrec, fLabel))),
			Src:   getU64(rrec, fSrc),
			Dst:   getU64(rrec, fDst),
			Props: s.readProps(getU64(rrec, fRProps)),
		}
		if !fn(rd) {
			return
		}
	}
}

// NodeCount returns the number of allocated node records.
func (s *Store) NodeCount() uint64 { return s.nextNode }

// --- DRAM index ---

// CreateIndex registers a DRAM hash index over (label, key) and backfills
// it.
func (s *Store) CreateIndex(label, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lc, kc := s.encode(label), s.encode(key)
	ik := [2]uint64{lc, kc}
	if _, dup := s.indexes[ik]; dup {
		return
	}
	idx := make(map[Value][]uint64)
	s.indexes[ik] = idx
	for id := uint64(0); id < s.nextNode; id++ {
		rec, _ := s.rec(nodeSpace, id)
		if getU32(rec, fInUse) == 0 || uint64(getU32(rec, fLabel)) != lc {
			continue
		}
		props := s.readProps(getU64(rec, fProps))
		s.indexAddLocked(idx, kc, id, props)
	}
}

func (s *Store) indexAdd(labelCode, id uint64, props map[string]any) {
	for ik, idx := range s.indexes {
		if ik[0] != labelCode {
			continue
		}
		s.indexAddLocked(idx, ik[1], id, props)
	}
}

func (s *Store) indexAddLocked(idx map[Value][]uint64, keyCode, id uint64, props map[string]any) {
	key := s.decode(keyCode)
	v, ok := props[key]
	if !ok {
		return
	}
	val := (&Tx{s: s}).encodeValue(v)
	idx[val] = append(idx[val], id)
}

func (s *Store) indexRemoveVals(labelCode, id uint64, props map[string]any) {
	for ik, idx := range s.indexes {
		if ik[0] != labelCode {
			continue
		}
		key := s.decode(ik[1])
		v, ok := props[key]
		if !ok {
			continue
		}
		val := (&Tx{s: s}).encodeValue(v)
		ids := idx[val]
		for i, x := range ids {
			if x == id {
				idx[val] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
}

// Lookup finds node ids by indexed property value.
func (tx *Tx) Lookup(label, key string, v any) ([]uint64, error) {
	s := tx.s
	lc, ok1 := s.dictFwd[label]
	kc, ok2 := s.dictFwd[key]
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: (%s,%s)", ErrNoIndex, label, key)
	}
	idx, ok := s.indexes[[2]uint64{lc, kc}]
	if !ok {
		return nil, fmt.Errorf("%w: (%s,%s)", ErrNoIndex, label, key)
	}
	return idx[tx.encodeValue(v)], nil
}

// DropCache flushes and empties the buffer pool, so subsequent reads hit
// the (simulated) disk — the cold-run state of the benchmarks.
func (s *Store) DropCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.flushAll()
	for i := range s.pool.frames {
		s.pool.frames[i].valid = false
	}
	s.pool.index = make(map[uint64]int, len(s.pool.frames))
}

// Checkpoint flushes all dirty pages and the log.
func (s *Store) Checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.flushAll()
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
