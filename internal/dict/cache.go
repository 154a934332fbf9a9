package dict

import (
	"sync"
	"sync/atomic"
)

const (
	cacheBlockCodes = 16      // codes per directory block
	cacheValChunk   = 256     // boxed strings per value chunk
	cacheChunk      = 8 << 10 // bytes per string chunk
	cacheOwnBuf     = cacheChunk / 4
)

// decodeCache is the dictionary's DRAM layer: code→string, filled on a
// decode's first miss and kept for the life of the Dict (a code's string
// never changes). Codes are dense from 1, so the cache is a directory of
// fixed-size blocks indexed by the code itself: a block's slot is
// code%cacheBlockCodes, an atomic pointer that is nil until the code is
// decoded. A hit is three atomic loads, with no lock and no allocation.
//
// What a slot points to is carved from chunks, so a thousand decoded
// codes do not make a thousand scattered objects that each pin a span:
// the boxed strings from chunks of cacheValChunk, their bytes from chunks
// of cacheChunk bytes (a string longer than cacheOwnBuf gets a buffer of
// its own). Slots are pointers, and blocks small, because a workload may
// decode a sparse subset of the codes: a block costs 128 bytes however
// few of its codes are decoded.
type decodeCache struct {
	// dir is published whole and replaced only to grow; its entries are
	// stored once, under fillMu.
	dir atomic.Pointer[[]atomic.Pointer[decodeBlock]]

	// fillMu serializes filling a slot, adding a block, growing dir and
	// carving vals and chunk. It is a leaf lock: a decode takes it with
	// d.mu read-held, and nothing is locked, and the device is not read,
	// while it is held.
	fillMu sync.Mutex
	vals   []any  // the unused tail of the current value chunk; guarded by fillMu
	chunk  []byte // the unused tail of the current string chunk; guarded by fillMu
}

// decodeBlock holds the boxed strings of cacheBlockCodes consecutive
// codes. A slot's value is written once, under fillMu, before the slot
// points to it.
type decodeBlock [cacheBlockCodes]atomic.Pointer[any]

// load returns the cached string of code, boxed, if it has been decoded.
func (c *decodeCache) load(code uint64) (any, bool) {
	dir := c.dir.Load()
	if dir == nil || code/cacheBlockCodes >= uint64(len(*dir)) {
		return nil, false
	}
	b := (*dir)[code/cacheBlockCodes].Load()
	if b == nil {
		return nil, false
	}
	v := b[code%cacheBlockCodes].Load()
	if v == nil {
		return nil, false
	}
	return *v, true
}

// carve returns n bytes the caller may fill and then hand to store as a
// string's backing; nothing else writes them.
func (c *decodeCache) carve(n uint64) []byte {
	if n > cacheOwnBuf {
		return make([]byte, n)
	}
	c.fillMu.Lock()
	if uint64(len(c.chunk)) < n {
		c.chunk = make([]byte, cacheChunk)
	}
	b := c.chunk[:n:n]
	c.chunk = c.chunk[n:]
	c.fillMu.Unlock()
	return b
}

// store caches s as code's string and returns it boxed. When a concurrent
// decode of the same code stored first, its value is returned instead, so
// every caller sees one box per code.
func (c *decodeCache) store(code uint64, s string) any {
	c.fillMu.Lock()
	defer c.fillMu.Unlock()
	slot := &c.blockLocked(code / cacheBlockCodes)[code%cacheBlockCodes]
	if v := slot.Load(); v != nil {
		return *v
	}
	if len(c.vals) == 0 {
		c.vals = make([]any, cacheValChunk)
	}
	v := &c.vals[0]
	c.vals = c.vals[1:]
	*v = s
	slot.Store(v)
	return *v
}

// blockLocked returns block bi, adding it (and growing the directory to
// hold it) if it is missing. The caller holds fillMu.
func (c *decodeCache) blockLocked(bi uint64) *decodeBlock {
	var dir []atomic.Pointer[decodeBlock]
	if p := c.dir.Load(); p != nil {
		dir = *p
	}
	if bi >= uint64(len(dir)) {
		grown := make([]atomic.Pointer[decodeBlock], max(2*uint64(len(dir)), bi+1))
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		c.dir.Store(&grown)
		dir = grown
	}
	b := dir[bi].Load()
	if b == nil {
		b = new(decodeBlock)
		dir[bi].Store(b)
	}
	return b
}
