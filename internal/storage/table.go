package storage

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
)

// Table is a chunked record table (DD1/DD2): a linked list of fixed-size
// chunks, each holding an occupancy bitmap and an array of equally-sized
// records. Records are addressed by their table-wide offset
// id = chunkIndex*chunkCap + slot, an 8-byte integer that is cheaper and
// failure-atomically storable, unlike a 16-byte persistent pointer (DD2).
//
// A persistent chunk directory (the paper's "persistent lookup table",
// a sparse index from the first record id of a chunk to its location)
// allows O(1) id→chunk translation; a volatile mirror of it is built at
// open so steady-state accesses never dereference persistent pointers
// (DG6). Deleted record slots are reused via the bitmaps rather than
// deallocated (DG5).

// Errors returned by table operations.
var (
	ErrTableFull = errors.New("storage: chunk directory full")
	ErrBadRecord = errors.New("storage: record id out of range or slot free")
	// ErrShardFull reports that a shard had too few free slots for a
	// reservation (FreeSlots). Callers reserve capacity with
	// EnsureShardFreeN, outside every engine lock, and retry.
	ErrShardFull = errors.New("storage: no free slot in shard")
)

// Table header layout (persistent).
const (
	tRecSize    = 0
	tChunkCap   = 8
	tChunkCount = 16
	tDirOff     = 24
	tDirCap     = 32
	tHeadChunk  = 40 // PPtr (16 bytes): first chunk, for pointer-based scans
	tTailChunk  = 56 // PPtr (16 bytes): last chunk
	tHeaderSize = 72
)

// Chunk layout: header, bitmap, then records starting at a 64-byte-aligned
// offset so records keep cache-line alignment relative to the chunk start
// (DG3; the chunk itself is 256-byte aligned by the allocator).
const (
	cNext    = 0  // PPtr to next chunk
	cFirstID = 16 // id of slot 0 in this chunk
	cBitmap  = 24
)

// TargetChunkBytes is the default chunk payload budget. With the 64-byte
// allocator header this lands chunks in the 64 KiB size class, a multiple
// of the 256-byte DCPMM block (DG3).
const TargetChunkBytes = 64<<10 - 64

// Options configures table creation.
type Options struct {
	// ChunkBytes caps the total chunk size (default TargetChunkBytes).
	ChunkBytes uint64
	// DirCap is the maximum number of chunks (default 16384, i.e. ~1 GiB
	// of 64 KiB chunks per table).
	DirCap uint64
}

// Table provides concurrent record-granular access. Insert/Release
// serialize on an internal mutex; reads are lock-free.
type Table struct {
	pool *pmemobj.Pool
	dev  *pmem.Device
	hdr  uint64

	recSize   uint64
	chunkCap  uint64
	dirOff    uint64
	dirCap    uint64
	bitmapLen uint64 // bitmap bytes (multiple of 8)
	dataStart uint64 // first record offset within a chunk

	mu      sync.Mutex
	dir     []uint64 // volatile chunk-offset mirror; len fixed to dirCap
	nChunks atomic.Uint64

	// Shard ownership is volatile and purely positional: chunk ci belongs
	// to shard ci % shards, so id → shard is re-derivable at open with any
	// shard count and the on-disk format is unchanged. free holds, per
	// shard, the chunk indexes that may have free slots.
	shards int
	free   [][]uint64
}

func chunkGeometry(recSize, chunkBytes uint64) (chunkCap, bitmapLen, dataStart uint64) {
	// Find the largest capacity whose bitmap+records fit in chunkBytes.
	chunkCap = (chunkBytes - cBitmap) / recSize
	for chunkCap > 0 {
		bitmapLen = (chunkCap + 63) / 64 * 8
		dataStart = (cBitmap + bitmapLen + 63) / 64 * 64
		if dataStart+chunkCap*recSize <= chunkBytes {
			return chunkCap, bitmapLen, dataStart
		}
		chunkCap--
	}
	panic("storage: chunk size too small for a single record")
}

// CreateTable allocates a new table for recSize-byte records.
func CreateTable(pool *pmemobj.Pool, recSize uint64, opts Options) (*Table, error) {
	if recSize == 0 || recSize%8 != 0 {
		return nil, fmt.Errorf("storage: record size %d must be a positive multiple of 8", recSize)
	}
	chunkBytes := opts.ChunkBytes
	if chunkBytes == 0 {
		chunkBytes = TargetChunkBytes
	}
	dirCap := opts.DirCap
	if dirCap == 0 {
		dirCap = 16384
	}
	chunkCap, bitmapLen, dataStart := chunkGeometry(recSize, chunkBytes)

	t := &Table{
		pool: pool, dev: pool.Device(),
		recSize: recSize, chunkCap: chunkCap,
		dirCap: dirCap, bitmapLen: bitmapLen, dataStart: dataStart,
		shards: 1, free: make([][]uint64, 1),
	}
	err := pool.RunTx(func(tx *pmemobj.Tx) error {
		hdr, err := tx.Alloc(tHeaderSize)
		if err != nil {
			return err
		}
		dir, err := tx.Alloc(dirCap * 8)
		if err != nil {
			return err
		}
		dev := pool.Device()
		dev.WriteU64(hdr+tRecSize, recSize)
		dev.WriteU64(hdr+tChunkCap, chunkCap)
		dev.WriteU64(hdr+tChunkCount, 0)
		dev.WriteU64(hdr+tDirOff, dir)
		dev.WriteU64(hdr+tDirCap, dirCap)
		t.hdr = hdr
		t.dirOff = dir
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: create table: %w", err)
	}
	t.dir = make([]uint64, dirCap)
	return t, nil
}

// OpenTable attaches to an existing table at header offset hdr, rebuilding
// the volatile directory mirror and free-chunk list from persistent state.
func OpenTable(pool *pmemobj.Pool, hdr uint64) (*Table, error) {
	dev := pool.Device()
	t := &Table{
		pool: pool, dev: dev, hdr: hdr,
		recSize:  dev.ReadU64(hdr + tRecSize),
		chunkCap: dev.ReadU64(hdr + tChunkCap),
		dirOff:   dev.ReadU64(hdr + tDirOff),
		dirCap:   dev.ReadU64(hdr + tDirCap),
	}
	if t.recSize == 0 || t.chunkCap == 0 {
		return nil, fmt.Errorf("storage: open table: corrupt header at %d", hdr)
	}
	t.bitmapLen = (t.chunkCap + 63) / 64 * 8
	t.dataStart = (cBitmap + t.bitmapLen + 63) / 64 * 64
	n := dev.ReadU64(hdr + tChunkCount)
	t.dir = make([]uint64, t.dirCap)
	for i := uint64(0); i < n; i++ {
		t.dir[i] = dev.ReadU64(t.dirOff + i*8)
	}
	t.nChunks.Store(n)
	// Rebuild the volatile free-chunk lists from the persistent bitmaps.
	t.shards = 1
	t.free = make([][]uint64, 1)
	t.rebucketLocked()
	return t, nil
}

// rebucketLocked rebuilds the per-shard free-chunk lists from the
// persistent bitmaps. Caller holds t.mu (or has exclusive access).
func (t *Table) rebucketLocked() {
	for s := range t.free {
		t.free[s] = t.free[s][:0]
	}
	n := t.nChunks.Load()
	for ci := uint64(0); ci < n; ci++ {
		if t.chunkFreeSlot(t.dir[ci]) >= 0 {
			s := int(ci) % t.shards
			t.free[s] = append(t.free[s], ci)
		}
	}
}

// SetShards repartitions chunk ownership over n shards (chunk ci belongs
// to shard ci % n). Ownership is volatile; any shard count is valid for
// any existing image. Must be called while the table is quiescent.
func (t *Table) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shards = n
	t.free = make([][]uint64, n)
	t.rebucketLocked()
}

// Shards returns the current shard count.
func (t *Table) Shards() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards
}

// ShardOf returns the shard owning record id's chunk. The result is valid
// for any id addressable under the current chunk count or beyond: shard
// ownership is positional (chunk index mod shard count).
func (t *Table) ShardOf(id uint64) int {
	return int(id/t.chunkCap) % t.shards
}

// Offset returns the table header offset for persisting in a root object.
func (t *Table) Offset() uint64 { return t.hdr }

// RecordSize returns the size of one record in bytes.
func (t *Table) RecordSize() uint64 { return t.recSize }

// ChunkCap returns the number of record slots per chunk.
func (t *Table) ChunkCap() uint64 { return t.chunkCap }

// Chunks returns the current chunk count.
func (t *Table) Chunks() uint64 { return t.nChunks.Load() }

// MaxID returns one past the largest possible record id.
func (t *Table) MaxID() uint64 { return t.nChunks.Load() * t.chunkCap }

// chunkFreeSlot returns the first free slot in the chunk, or -1.
func (t *Table) chunkFreeSlot(chunkOff uint64) int64 {
	for w := uint64(0); w < t.bitmapLen/8; w++ {
		bits := t.dev.ReadU64(chunkOff + cBitmap + w*8)
		if bits == ^uint64(0) {
			continue
		}
		for b := uint64(0); b < 64; b++ {
			slot := w*64 + b
			if slot >= t.chunkCap {
				return -1
			}
			if bits&(1<<b) == 0 {
				return int64(slot)
			}
		}
	}
	return -1
}

// RecordOffset translates a record id into its device offset without
// checking occupancy. It returns false for ids beyond the allocated
// chunks.
func (t *Table) RecordOffset(id uint64) (uint64, bool) {
	ci := id / t.chunkCap
	if ci >= t.nChunks.Load() {
		return 0, false
	}
	chunk := t.dir[ci]
	return chunk + t.dataStart + (id%t.chunkCap)*t.recSize, true
}

// BitmapWord returns the 64-slot occupancy word covering id (bit i set =
// slot id/64*64+i occupied). Used by pull iterators to amortize bitmap
// reads across 64 slots.
func (t *Table) BitmapWord(id uint64) uint64 {
	ci := id / t.chunkCap
	if ci >= t.nChunks.Load() {
		return 0
	}
	slot := id % t.chunkCap
	return t.dev.ReadU64(t.dir[ci] + cBitmap + slot/64*8)
}

// BitmapWordOff returns the device offset of the occupancy word covering
// id, for callers pre-declaring the exact ranges a release will touch
// (group-commit leaders batching undo snapshots). False for ids beyond
// the allocated chunks.
func (t *Table) BitmapWordOff(id uint64) (uint64, bool) {
	ci := id / t.chunkCap
	if ci >= t.nChunks.Load() {
		return 0, false
	}
	slot := id % t.chunkCap
	return t.dir[ci] + cBitmap + slot/64*8, true
}

// Occupied reports whether id names an allocated record slot.
func (t *Table) Occupied(id uint64) bool {
	ci := id / t.chunkCap
	if ci >= t.nChunks.Load() {
		return false
	}
	slot := id % t.chunkCap
	bits := t.dev.ReadU64(t.dir[ci] + cBitmap + slot/64*8)
	return bits&(1<<(slot%64)) != 0
}

// Insert allocates a record slot in its own transaction. See InsertTx.
func (t *Table) Insert() (uint64, uint64, error) {
	var id, off uint64
	err := t.pool.RunTx(func(tx *pmemobj.Tx) error {
		var err error
		id, off, err = t.InsertTx(tx)
		return err
	})
	return id, off, err
}

// InsertTx allocates a record slot within tx, marks it occupied and
// returns its id and device offset. The record bytes are zero. Lock
// ordering: callers acquire the pool transaction lock (RunTx) before the
// table mutex, never the reverse.
//
// If the enclosing transaction aborts, the persistent state rolls back but
// the table's volatile mirrors may be stale; call ResyncVolatile before
// reusing the table after an aborted structural transaction.
func (t *Table) InsertTx(tx *pmemobj.Tx) (uint64, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	for s := range t.free {
		if ci, slot, ok := t.freeSlotLocked(s); ok {
			if err := t.setBitmapTx(tx, t.dir[ci], slot, true); err != nil {
				return 0, 0, err
			}
			return ci*t.chunkCap + slot, t.dir[ci] + t.dataStart + slot*t.recSize, nil
		}
	}

	ci, err := t.appendChunkTx(tx)
	if err != nil {
		return 0, 0, err
	}
	chunk := t.dir[ci]
	if err := t.setBitmapTx(tx, chunk, 0, true); err != nil {
		return 0, 0, err
	}
	t.free[int(ci)%t.shards] = append(t.free[int(ci)%t.shards], ci)
	return ci * t.chunkCap, chunk + t.dataStart, nil
}

// freeSlotLocked returns the first free slot of the last chunk on shard
// s's free list that still has one, dropping the full chunks it passes.
// Caller holds t.mu.
func (t *Table) freeSlotLocked(s int) (ci, slot uint64, ok bool) {
	list := t.free[s]
	for len(list) > 0 {
		ci = list[len(list)-1]
		if slot := t.chunkFreeSlot(t.dir[ci]); slot >= 0 {
			t.free[s] = list
			return ci, uint64(slot), true
		}
		list = list[:len(list)-1]
	}
	t.free[s] = list
	return 0, 0, false
}

// FreeSlots appends to dst the ids of n free slots of chunks owned by
// shard s, in the order successive inserts would take them, and marks
// none of them. It fails with ErrShardFull when the shard has fewer; the
// caller reserves capacity with EnsureShardFreeN and retries.
//
// The slots stay free until the caller occupies them (Occupy, or
// InsertAtTx inside a transaction), so a reservation holds only while
// the caller excludes every other taker of shard s's slots — in the
// engine, by holding the shard's commit lock — and two calls for one
// shard return the same slots.
func (t *Table) FreeSlots(dst []uint64, s, n int) ([]uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s < 0 || s >= t.shards {
		return dst, fmt.Errorf("storage: reserve in unknown shard %d of %d", s, t.shards)
	}
	var seenBuf [8]uint64
	seen := seenBuf[:0] // a chunk released into twice is listed twice
	list := t.free[s]
	for i := len(list) - 1; i >= 0 && n > 0; i-- {
		ci := list[i]
		if slices.Contains(seen, ci) {
			continue
		}
		seen = append(seen, ci)
		chunk := t.dir[ci]
		for w := uint64(0); w*64 < t.chunkCap && n > 0; w++ {
			free := ^t.dev.ReadU64(chunk + cBitmap + w*8)
			for ; free != 0 && n > 0; free &= free - 1 {
				slot := w*64 + uint64(mathbits.TrailingZeros64(free))
				if slot >= t.chunkCap {
					break
				}
				dst = append(dst, ci*t.chunkCap+slot)
				n--
			}
		}
	}
	if n > 0 {
		return dst, fmt.Errorf("%w %d", ErrShardFull, s)
	}
	return dst, nil
}

// Occupy sets the occupancy bit of the free slot id in the CPU view
// alone — no undo entry, no flush — and returns the device offset of the
// bitmap word it changed. It is the engine's op-time insert (§5.1: the
// new record is stored in the persistent array at once, write-locked
// until commit): the bit becomes durable only when the inserting commit
// snapshots and flushes that word, and a crash before then forgets an
// insert nobody committed. The caller must exclude every other writer of
// the word, including an online rollback of a transaction that
// snapshotted it.
//
//pmem:deferred-flush the inserting commit snapshots the word and flushes it before its commit point
func (t *Table) Occupy(id uint64) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wordOff, ok := t.BitmapWordOff(id)
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrBadRecord, id)
	}
	bits := t.dev.ReadU64(wordOff)
	if bits&(1<<(id%t.chunkCap%64)) != 0 {
		return 0, fmt.Errorf("%w: id %d already occupied", ErrBadRecord, id)
	}
	t.dev.WriteU64(wordOff, bits|1<<(id%t.chunkCap%64))
	return wordOff, nil
}

// EnsureShardFree guarantees shard s owns at least one free record slot,
// appending chunks in a pool transaction on the built-in log if needed.
// Appended chunks that land in other shards are registered in their
// owners' free lists, so capacity reservation is batched across shards
// (DG5: group allocation).
func (t *Table) EnsureShardFree(s int) error {
	return t.EnsureShardFreeN(s, 1)
}

// EnsureShardFreeN guarantees shard s owns at least n free record slots.
// Commit retries use it after ErrShardFull: a single commit may write
// several property records into one shard, so reserving one slot at a
// time could loop forever.
func (t *Table) EnsureShardFreeN(s, n int) error {
	t.mu.Lock()
	has := t.shardFreeSlotsLocked(s, n) >= n
	t.mu.Unlock()
	if has {
		return nil
	}
	return t.pool.RunTx(func(tx *pmemobj.Tx) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		for t.shardFreeSlotsLocked(s, n) < n {
			ci, err := t.appendChunkTx(tx)
			if err != nil {
				return err
			}
			owner := int(ci) % t.shards
			t.free[owner] = append(t.free[owner], ci)
		}
		return nil
	})
}

// shardFreeSlotsLocked counts free slots across shard s's chunks, stopping
// once limit is reached. Caller holds t.mu. It rescans the shard's whole
// chunk set, so it also repairs a free list that lost entries to a
// rolled-back lane transaction.
func (t *Table) shardFreeSlotsLocked(s, limit int) int {
	if s < 0 || s >= t.shards {
		return 0
	}
	t.free[s] = t.free[s][:0]
	total := 0
	n := t.nChunks.Load()
	for ci := uint64(s); ci < n; ci += uint64(t.shards) {
		c := t.chunkFreeCount(t.dir[ci])
		if c > 0 {
			t.free[s] = append(t.free[s], ci)
			total += c
			if total >= limit {
				break
			}
		}
	}
	return total
}

// chunkFreeCount returns the number of free slots in the chunk.
func (t *Table) chunkFreeCount(chunkOff uint64) int {
	total := 0
	for w := uint64(0); w < t.bitmapLen/8; w++ {
		bits := t.dev.ReadU64(chunkOff + cBitmap + w*8)
		hi := (w + 1) * 64
		if hi > t.chunkCap {
			// Mask out the padding bits beyond the chunk's capacity.
			bits |= ^uint64(0) << (t.chunkCap - w*64)
		}
		total += 64 - mathbits.OnesCount64(bits)
	}
	return total
}

// InsertAtTx marks a specific id occupied within tx: a slot FreeSlots
// reserved (an engine commit taking its property records), or a chosen
// id on recovery and bulk-load paths. It fails if the slot is already
// occupied.
func (t *Table) InsertAtTx(tx *pmemobj.Tx, id uint64) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := id / t.chunkCap
	for ci >= t.nChunks.Load() {
		if _, err := t.appendChunkTx(tx); err != nil {
			return 0, err
		}
	}
	slot := id % t.chunkCap
	chunk := t.dir[ci]
	bits := t.dev.ReadU64(chunk + cBitmap + slot/64*8)
	if bits&(1<<(slot%64)) != 0 {
		return 0, fmt.Errorf("%w: id %d already occupied", ErrBadRecord, id)
	}
	if err := t.setBitmapTx(tx, chunk, slot, true); err != nil {
		return 0, err
	}
	return chunk + t.dataStart + slot*t.recSize, nil
}

// Release frees the record slots ids (see ReleaseTx) in as few
// transactions on the pool's built-in log as its capacity allows. Each
// snapshots all its records and bitmap words with one SnapshotAll, so it
// costs one publication fence and one commit however many slots it
// frees.
func (t *Table) Release(ids ...uint64) error {
	per := uint64(1)
	if logCap := t.pool.LogCap(); logCap > pmemobj.LogHeaderBytes {
		per = max(1, (logCap-pmemobj.LogHeaderBytes)/(pmemobj.SnapshotCost(t.recSize)+pmemobj.SnapshotCost(8)))
	}
	for len(ids) > 0 {
		batch := ids[:min(uint64(len(ids)), per)]
		ranges := make([]pmemobj.Range, 0, 2*len(batch))
		for _, id := range batch {
			if off, ok := t.RecordOffset(id); ok {
				w, _ := t.BitmapWordOff(id)
				ranges = append(ranges, pmemobj.Range{Off: off, N: t.recSize}, pmemobj.Range{Off: w, N: 8})
			}
		}
		err := t.pool.RunTx(func(tx *pmemobj.Tx) error {
			if err := tx.SnapshotAll(ranges); err != nil {
				return err
			}
			for _, id := range batch {
				if err := t.ReleaseTx(tx, id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ids = ids[len(batch):]
	}
	return nil
}

// ReleaseTx zeroes the record and clears its bitmap bit within tx, making
// the slot reusable (DG5: reuse instead of deallocating). Zeroing keeps
// the invariant that occupied slots always carry either committed or
// transaction-locked contents.
func (t *Table) ReleaseTx(tx *pmemobj.Tx, id uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := id / t.chunkCap
	if ci >= t.nChunks.Load() {
		return fmt.Errorf("%w: id %d", ErrBadRecord, id)
	}
	slot := id % t.chunkCap
	chunk := t.dir[ci]
	bits := t.dev.ReadU64(chunk + cBitmap + slot/64*8)
	if bits&(1<<(slot%64)) == 0 {
		return fmt.Errorf("%w: id %d already free", ErrBadRecord, id)
	}
	off := chunk + t.dataStart + slot*t.recSize
	if err := tx.Snapshot(off, t.recSize); err != nil {
		return err
	}
	t.dev.Zero(off, t.recSize)
	if err := t.setBitmapTx(tx, chunk, slot, false); err != nil {
		return err
	}
	s := int(ci) % t.shards
	t.free[s] = append(t.free[s], ci)
	return nil
}

// setBitmapTx flips one occupancy bit under the transaction's undo log so
// an abort restores it. The store itself is a single 8-byte word (DG4).
func (t *Table) setBitmapTx(tx *pmemobj.Tx, chunk, slot uint64, occupied bool) error {
	wordOff := chunk + cBitmap + slot/64*8
	if err := tx.Snapshot(wordOff, 8); err != nil {
		return err
	}
	bits := t.dev.ReadU64(wordOff)
	if occupied {
		bits |= 1 << (slot % 64)
	} else {
		bits &^= 1 << (slot % 64)
	}
	t.dev.WriteU64(wordOff, bits)
	return nil
}

// appendChunkTx allocates and links a new chunk within tx; caller holds
// t.mu.
func (t *Table) appendChunkTx(tx *pmemobj.Tx) (uint64, error) {
	n := t.nChunks.Load()
	if n >= t.dirCap {
		return 0, ErrTableFull
	}
	chunkBytes := t.dataStart + t.chunkCap*t.recSize
	chunk, err := tx.Alloc(chunkBytes)
	if err != nil {
		return 0, err
	}
	dev := t.dev
	dev.WriteU64(chunk+cFirstID, n*t.chunkCap)
	t.pool.WritePPtr(chunk+cNext, pmemobj.PPtr{})
	// Link from the previous tail (or set as head).
	if err := tx.Snapshot(t.hdr+tHeadChunk, 32); err != nil {
		return 0, err
	}
	pp := pmemobj.PPtr{Pool: t.pool.UUID(), Off: chunk}
	if n == 0 {
		t.pool.WritePPtr(t.hdr+tHeadChunk, pp)
	} else {
		prev := t.dir[n-1]
		if err := tx.Snapshot(prev+cNext, 16); err != nil {
			return 0, err
		}
		t.pool.WritePPtr(prev+cNext, pp)
	}
	t.pool.WritePPtr(t.hdr+tTailChunk, pp)
	// Directory entry and count.
	if err := tx.Snapshot(t.dirOff+n*8, 8); err != nil {
		return 0, err
	}
	dev.WriteU64(t.dirOff+n*8, chunk)
	if err := tx.Snapshot(t.hdr+tChunkCount, 8); err != nil {
		return 0, err
	}
	dev.WriteU64(t.hdr+tChunkCount, n+1)
	t.dir[n] = chunk
	t.nChunks.Store(n + 1)
	return n, nil
}

// ResyncVolatile rebuilds the volatile directory mirror and free-chunk
// list from persistent state. Call after a structural transaction (one
// that inserted or released records) aborted.
func (t *Table) ResyncVolatile() {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.dev.ReadU64(t.hdr + tChunkCount)
	for i := uint64(0); i < n; i++ {
		t.dir[i] = t.dev.ReadU64(t.dirOff + i*8)
	}
	t.nChunks.Store(n)
	t.rebucketLocked()
}

// Scan visits every occupied record in id order, stopping early if fn
// returns false.
func (t *Table) Scan(fn func(id, off uint64) bool) {
	n := t.nChunks.Load()
	for ci := uint64(0); ci < n; ci++ {
		if !t.ScanChunk(ci, fn) {
			return
		}
	}
}

// ScanChunk visits the occupied records of one chunk (a morsel in the
// §6.1 sense). It reports whether scanning should continue.
func (t *Table) ScanChunk(ci uint64, fn func(id, off uint64) bool) bool {
	if ci >= t.nChunks.Load() {
		return true
	}
	chunk := t.dir[ci]
	for w := uint64(0); w*64 < t.chunkCap; w++ {
		bits := t.dev.ReadU64(chunk + cBitmap + w*8)
		for bits != 0 {
			b := uint64(mathbits.TrailingZeros64(bits))
			bits &= bits - 1
			slot := w*64 + b
			if slot >= t.chunkCap {
				break
			}
			id := ci*t.chunkCap + slot
			if !fn(id, chunk+t.dataStart+slot*t.recSize) {
				return false
			}
		}
	}
	return true
}

// Count scans the bitmaps and returns the number of occupied slots.
func (t *Table) Count() uint64 {
	var c uint64
	t.Scan(func(_, _ uint64) bool { c++; return true })
	return c
}
