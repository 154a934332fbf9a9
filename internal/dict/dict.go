// Package dict implements the persistent string dictionary of §4.2 (DD3):
// labels, property keys and string property values are encoded as dense
// integer codes so that records stay fixed-size and comparisons operate on
// codes instead of strings.
//
// Two persistent translation structures are kept, as in the paper: a hash
// table for string→code and a reverse table for code→string. Both live in
// PMem because "the codes and strings are not stored elsewhere" — losing
// the dictionary would make the whole graph unreadable. All mutations are
// failure-atomic via pmemobj transactions.
package dict

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"poseidon/internal/pmemobj"
)

// Errors returned by dictionary operations.
var (
	ErrUnknownCode = errors.New("dict: unknown code")
	ErrFull        = errors.New("dict: reverse directory full")
)

// Header layout (offsets relative to the dictionary header block).
const (
	hCount     = 0  // next code to assign (codes start at 1)
	hBucketOff = 8  // offset of the bucket array
	hBucketCap = 16 // bucket count (power of two)
	hRevDirOff = 24 // offset of the reverse directory
	hArenaOff  = 32 // current string arena block
	hArenaUsed = 40 // bytes used in the current arena block
	hArenaCap  = 48 // capacity of the current arena block
	headerSize = 64
)

const (
	slotSize      = 24 // hash u64, strOff u64, code u64
	initialBucket = 1024
	revDirCap     = 4096 // directory entries
	revBlockCodes = 4096 // codes per reverse block
	arenaBlock    = 64 << 10
)

// Dict is a bi-directional persistent string dictionary with a hybrid
// DRAM acceleration layer: decoded strings are memoized in a volatile
// cache (codes are immutable once assigned), so hot decodes skip PMem
// entirely. This implements the paper's §8 outlook ("further performance
// improvements ... by employing more hybrid DRAM/PMem approaches such as
// for dictionaries"); the cache is simply empty after recovery (see
// decodeCache).
type Dict struct {
	pool *pmemobj.Pool
	hdr  uint64

	// mu protects readers from in-flight rehashes. Mutations additionally
	// serialize on the pool's transaction lock, and the process-wide lock
	// order is pool lock BEFORE d.mu: EncodeTx runs with the caller's
	// pool transaction already open and takes d.mu inside it, so Encode
	// must open its own pool transaction first and only then take d.mu
	// (see encodeInTx). Taking d.mu around RunTx would invert the order
	// and deadlock against an open bulk-load batch.
	mu sync.RWMutex

	// cache memoizes code→string (volatile, rebuilt on demand).
	cache decodeCache
}

// Create allocates and initializes a dictionary in p. The returned header
// offset identifies the dictionary for Open.
func Create(p *pmemobj.Pool) (*Dict, error) {
	d := &Dict{pool: p}
	err := p.RunTx(func(tx *pmemobj.Tx) error {
		hdr, err := tx.Alloc(headerSize)
		if err != nil {
			return err
		}
		buckets, err := tx.Alloc(initialBucket * slotSize)
		if err != nil {
			return err
		}
		revDir, err := tx.Alloc(revDirCap * 8)
		if err != nil {
			return err
		}
		arena, err := tx.Alloc(arenaBlock)
		if err != nil {
			return err
		}
		dev := p.Device()
		dev.WriteU64(hdr+hCount, 1)
		dev.WriteU64(hdr+hBucketOff, buckets)
		dev.WriteU64(hdr+hBucketCap, initialBucket)
		dev.WriteU64(hdr+hRevDirOff, revDir)
		dev.WriteU64(hdr+hArenaOff, arena)
		dev.WriteU64(hdr+hArenaUsed, 0)
		dev.WriteU64(hdr+hArenaCap, arenaBlock)
		d.hdr = hdr
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dict: create: %w", err)
	}
	return d, nil
}

// Open attaches to an existing dictionary at header offset hdr.
func Open(p *pmemobj.Pool, hdr uint64) *Dict {
	return &Dict{pool: p, hdr: hdr}
}

// Offset returns the header offset for persisting in a root object.
func (d *Dict) Offset() uint64 { return d.hdr }

// Count returns the number of distinct strings in the dictionary.
func (d *Dict) Count() uint64 {
	return d.pool.Device().ReadU64(d.hdr+hCount) - 1
}

// fnv1a is the 64-bit FNV-1a hash, inlined to avoid allocations.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	if h == 0 { // reserve 0 as the empty-slot marker
		h = 1
	}
	return h
}

// Lookup returns the code for s without inserting.
func (d *Dict) Lookup(s string) (uint64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lookupLocked(s, fnv1a(s))
}

func (d *Dict) lookupLocked(s string, h uint64) (uint64, bool) {
	dev := d.pool.Device()
	arr := dev.ReadU64(d.hdr + hBucketOff)
	capacity := dev.ReadU64(d.hdr + hBucketCap)
	mask := capacity - 1
	for i := h & mask; ; i = (i + 1) & mask {
		slot := arr + i*slotSize
		sh := dev.ReadU64(slot)
		if sh == 0 {
			return 0, false
		}
		if sh == h {
			strOff := dev.ReadU64(slot + 8)
			if d.stringIs(strOff, s) {
				return dev.ReadU64(slot + 16), true
			}
		}
	}
}

// Encode returns the code for s, inserting it if new. The insert is
// failure-atomic: after a crash either the string is fully present with
// its code or absent entirely.
func (d *Dict) Encode(s string) (uint64, error) {
	h := fnv1a(s)
	d.mu.RLock()
	code, ok := d.lookupLocked(s, h)
	d.mu.RUnlock()
	if ok {
		return code, nil
	}
	// Pool transaction first, d.mu inside it — the same order EncodeTx
	// imposes (its caller already holds the pool lock). A concurrent
	// Encode during a bulk-load batch therefore parks on the pool lock
	// holding nothing, instead of deadlocking the batch's EncodeTx.
	err := d.pool.RunTx(func(tx *pmemobj.Tx) error {
		var err error
		code, err = d.encodeInTx(tx, s, h)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("dict: encode %q: %w", s, err)
	}
	return code, nil
}

// EncodeTx is Encode running inside the caller's already-open pool
// transaction: the insert becomes failure-atomic with the caller's
// batch instead of paying a transaction (and its commit fences) of its
// own. The bulk loader uses it to intern the many unique string values
// an ingest batch carries without breaking the batch.
func (d *Dict) EncodeTx(tx *pmemobj.Tx, s string) (uint64, error) {
	h := fnv1a(s)
	d.mu.RLock()
	code, ok := d.lookupLocked(s, h)
	d.mu.RUnlock()
	if ok {
		return code, nil
	}
	code, err := d.encodeInTx(tx, s, h)
	if err != nil {
		return 0, fmt.Errorf("dict: encode %q: %w", s, err)
	}
	return code, nil
}

// encodeInTx interns s inside the given pool transaction, taking d.mu
// for writing only after the pool lock is held (the process-wide order
// for this lock pair). Re-checks under the write lock before inserting.
func (d *Dict) encodeInTx(tx *pmemobj.Tx, s string, h uint64) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if code, ok := d.lookupLocked(s, h); ok {
		return code, nil
	}
	return d.insertLocked(tx, s, h)
}

// insertLocked performs the new-string insert inside tx. Caller holds
// d.mu for writing and has verified the string is absent.
func (d *Dict) insertLocked(tx *pmemobj.Tx, s string, h uint64) (uint64, error) {
	dev := d.pool.Device()
	capacity := dev.ReadU64(d.hdr + hBucketCap)
	count := dev.ReadU64(d.hdr+hCount) - 1
	if (count+1)*10 >= capacity*7 { // load factor 0.7
		if err := d.growLocked(tx, capacity*2); err != nil {
			return 0, err
		}
	}
	strOff, err := d.appendString(tx, s)
	if err != nil {
		return 0, err
	}
	if err := tx.Snapshot(d.hdr+hCount, 8); err != nil {
		return 0, err
	}
	code := dev.ReadU64(d.hdr + hCount)
	dev.WriteU64(d.hdr+hCount, code+1)

	// Forward table insert.
	arr := dev.ReadU64(d.hdr + hBucketOff)
	mask := dev.ReadU64(d.hdr+hBucketCap) - 1
	i := h & mask
	for {
		slot := arr + i*slotSize
		if dev.ReadU64(slot) == 0 {
			if err := tx.Snapshot(slot, slotSize); err != nil {
				return 0, err
			}
			dev.WriteU64(slot+8, strOff)
			dev.WriteU64(slot+16, code)
			dev.WriteU64(slot, h) // hash written last: slot valid only when complete
			break
		}
		i = (i + 1) & mask
	}

	// Reverse table insert.
	if err := d.setReverse(tx, code, strOff); err != nil {
		return 0, err
	}
	return code, nil
}

// Decode translates a code back to its string. Hot codes are served from
// the volatile DRAM cache; cold ones read the persistent reverse table
// and populate the cache.
func (d *Dict) Decode(code uint64) (string, error) {
	s, err := d.DecodeAny(code)
	str, _ := s.(string)
	return str, err
}

// DecodeAny is Decode answering with the string boxed as the cache holds
// it, so that a caller that wants an interface value does not box it again.
func (d *Dict) DecodeAny(code uint64) (any, error) {
	if s, ok := d.cache.load(code); ok {
		return s, nil
	}
	dev := d.pool.Device()
	if code == 0 || code >= dev.ReadU64(d.hdr+hCount) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCode, code)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	dir := dev.ReadU64(d.hdr + hRevDirOff)
	blockIdx := code / revBlockCodes
	block := dev.ReadU64(dir + blockIdx*8)
	if block == 0 {
		return nil, fmt.Errorf("%w: %d (missing reverse block)", ErrUnknownCode, code)
	}
	strOff := dev.ReadU64(block + (code%revBlockCodes)*8)
	if strOff == 0 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCode, code)
	}
	var s string
	if n := dev.ReadU64(strOff); n > 0 {
		buf := d.cache.carve(n)
		dev.ReadBytes(strOff+8, buf)
		s = unsafe.String(&buf[0], n) // buf is never written again
	}
	return d.cache.store(code, s), nil
}

// readString reads a length-prefixed string at off.
func (d *Dict) readString(off uint64) string {
	dev := d.pool.Device()
	n := dev.ReadU64(off)
	if n == 0 {
		return ""
	}
	buf := make([]byte, n)
	dev.ReadBytes(off+8, buf)
	return unsafe.String(&buf[0], n) // buf is never written again
}

// inlineCompare is the longest stored string stringIs compares without
// allocating.
const inlineCompare = 64

// stringIs reports whether the string stored at off is s. It makes the
// device reads readString makes, but a string of up to inlineCompare
// bytes is read into a stack buffer instead of a new allocation.
func (d *Dict) stringIs(off uint64, s string) bool {
	dev := d.pool.Device()
	n := dev.ReadU64(off)
	if n == 0 {
		return s == ""
	}
	var small [inlineCompare]byte
	var buf []byte
	if n <= inlineCompare {
		buf = small[:n]
	} else {
		buf = make([]byte, n)
	}
	dev.ReadBytes(off+8, buf)
	return string(buf) == s
}

// appendString stores s in the arena and returns its offset.
func (d *Dict) appendString(tx *pmemobj.Tx, s string) (uint64, error) {
	dev := d.pool.Device()
	need := uint64(8 + (len(s)+7)/8*8)
	if need > arenaBlock {
		return 0, fmt.Errorf("dict: string of %d bytes exceeds arena block", len(s))
	}
	used := dev.ReadU64(d.hdr + hArenaUsed)
	capacity := dev.ReadU64(d.hdr + hArenaCap)
	if used+need > capacity {
		blk, err := tx.Alloc(arenaBlock)
		if err != nil {
			return 0, err
		}
		if err := tx.Snapshot(d.hdr+hArenaOff, 24); err != nil {
			return 0, err
		}
		dev.WriteU64(d.hdr+hArenaOff, blk)
		dev.WriteU64(d.hdr+hArenaUsed, 0)
		dev.WriteU64(d.hdr+hArenaCap, arenaBlock)
		used = 0
	} else {
		if err := tx.Snapshot(d.hdr+hArenaUsed, 8); err != nil {
			return 0, err
		}
	}
	arena := dev.ReadU64(d.hdr + hArenaOff)
	off := arena + used
	dev.WriteU64(off, uint64(len(s)))
	dev.WriteBytes(off+8, []byte(s))
	dev.WriteU64(d.hdr+hArenaUsed, used+need)
	tx.NoteWrite(off, need)
	return off, nil
}

// setReverse records code→strOff, allocating the reverse block on demand.
func (d *Dict) setReverse(tx *pmemobj.Tx, code, strOff uint64) error {
	dev := d.pool.Device()
	dir := dev.ReadU64(d.hdr + hRevDirOff)
	blockIdx := code / revBlockCodes
	if blockIdx >= revDirCap {
		return ErrFull
	}
	block := dev.ReadU64(dir + blockIdx*8)
	if block == 0 {
		blk, err := tx.Alloc(revBlockCodes * 8)
		if err != nil {
			return err
		}
		if err := tx.Snapshot(dir+blockIdx*8, 8); err != nil {
			return err
		}
		dev.WriteU64(dir+blockIdx*8, blk)
		block = blk
	}
	slot := block + (code%revBlockCodes)*8
	if err := tx.Snapshot(slot, 8); err != nil {
		return err
	}
	dev.WriteU64(slot, strOff)
	return nil
}

// growLocked rehashes the forward table into a bucket array of newCap
// slots. Caller holds d.mu for writing and runs inside tx.
func (d *Dict) growLocked(tx *pmemobj.Tx, newCap uint64) error {
	dev := d.pool.Device()
	newArr, err := tx.Alloc(newCap * slotSize)
	if err != nil {
		return err
	}
	oldArr := dev.ReadU64(d.hdr + hBucketOff)
	oldCap := dev.ReadU64(d.hdr + hBucketCap)
	mask := newCap - 1
	for i := uint64(0); i < oldCap; i++ {
		slot := oldArr + i*slotSize
		h := dev.ReadU64(slot)
		if h == 0 {
			continue
		}
		j := h & mask
		for dev.ReadU64(newArr+j*slotSize) != 0 {
			j = (j + 1) & mask
		}
		dst := newArr + j*slotSize
		dev.WriteU64(dst+8, dev.ReadU64(slot+8))
		dev.WriteU64(dst+16, dev.ReadU64(slot+16))
		dev.WriteU64(dst, h)
	}
	tx.NoteWrite(newArr, newCap*slotSize)
	if err := tx.Snapshot(d.hdr+hBucketOff, 16); err != nil {
		return err
	}
	dev.WriteU64(d.hdr+hBucketOff, newArr)
	dev.WriteU64(d.hdr+hBucketCap, newCap)
	return tx.Free(oldArr)
}

// CheckIntegrity verifies the code↔string bijection of the persistent
// image and returns a description of each violation (nil means healthy):
// every occupied forward slot holds a valid in-bounds string whose hash
// matches, a code in [1, next), unique among slots, and the reverse table
// maps that code back to the same string; every assigned code decodes.
// Used by the fsck harness (internal/fsck) after crash recovery.
func (d *Dict) CheckIntegrity() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var probs []string
	dev := d.pool.Device()
	devSize := uint64(dev.Size())
	next := dev.ReadU64(d.hdr + hCount)
	if next == 0 {
		return []string{"dict: next-code counter is 0 (codes start at 1)"}
	}
	arr := dev.ReadU64(d.hdr + hBucketOff)
	capacity := dev.ReadU64(d.hdr + hBucketCap)
	if capacity == 0 || capacity&(capacity-1) != 0 || arr+capacity*slotSize > devSize {
		return []string{fmt.Sprintf("dict: bucket array [%#x, cap %d] invalid", arr, capacity)}
	}

	codeStr := make(map[uint64]string, next-1)
	for i := uint64(0); i < capacity; i++ {
		slot := arr + i*slotSize
		h := dev.ReadU64(slot)
		if h == 0 {
			continue
		}
		strOff := dev.ReadU64(slot + 8)
		code := dev.ReadU64(slot + 16)
		if strOff+8 > devSize || strOff+8+dev.ReadU64(strOff) > devSize {
			probs = append(probs, fmt.Sprintf("dict: slot %d string offset %#x out of bounds", i, strOff))
			continue
		}
		s := d.readString(strOff)
		if fnv1a(s) != h {
			probs = append(probs, fmt.Sprintf("dict: slot %d hash %#x does not match string %q", i, h, s))
		}
		if code == 0 || code >= next {
			probs = append(probs, fmt.Sprintf("dict: slot %d code %d outside [1, %d)", i, code, next))
			continue
		}
		if prev, dup := codeStr[code]; dup {
			probs = append(probs, fmt.Sprintf("dict: code %d assigned to both %q and %q", code, prev, s))
			continue
		}
		codeStr[code] = s
	}

	// Reverse direction: every assigned code must decode to the string the
	// forward table stores for it.
	dir := dev.ReadU64(d.hdr + hRevDirOff)
	for code := uint64(1); code < next; code++ {
		blockIdx := code / revBlockCodes
		if blockIdx >= revDirCap {
			probs = append(probs, fmt.Sprintf("dict: code %d beyond reverse directory", code))
			continue
		}
		block := dev.ReadU64(dir + blockIdx*8)
		var strOff uint64
		if block != 0 && block+(code%revBlockCodes)*8+8 <= devSize {
			strOff = dev.ReadU64(block + (code%revBlockCodes)*8)
		}
		fwd, inFwd := codeStr[code]
		if strOff == 0 || strOff+8 > devSize {
			probs = append(probs, fmt.Sprintf("dict: code %d has no reverse mapping", code))
			continue
		}
		rev := d.readString(strOff)
		if !inFwd {
			probs = append(probs, fmt.Sprintf("dict: code %d (%q) missing from the forward table", code, rev))
			continue
		}
		if rev != fwd {
			probs = append(probs, fmt.Sprintf("dict: code %d decodes to %q but encodes from %q", code, rev, fwd))
		}
	}
	return probs
}
