package pmem

import (
	"sync"
	"sync/atomic"
)

// Simulated CPU cache. Loads from the device first probe this cache: a hit
// is free, a miss pays the device read latency (C1) and installs the line.
// The cache only tracks tags (which lines are resident), never data — the
// data always lives in the device's CPU view. This is sufficient to model
// hot-vs-cold behaviour, which drives the paper's "hot run" results where
// PMem latency is hidden by the CPU caches.

const (
	// LineSize is the CPU cache line size in bytes.
	LineSize = 64
	// BlockSize is the DCPMM internal write block size in bytes (C3).
	BlockSize = 256
	cacheWays = 8
)

// cacheSet is one associativity set. Probes read the tags without the
// lock; mu serializes installs and invalidations only. The struct is
// padded to two cache lines (tags fill the first) so probes of
// neighbouring sets never false-share.
type cacheSet struct {
	tags [cacheWays]atomic.Uint64 // line number + 1; 0 means empty
	mu   sync.Mutex
	hand uint8                  // round-robin eviction cursor; guarded by mu
	_    [LineSize - 8 - 1]byte // mu is 8 bytes, hand 1
}

type cacheSim struct {
	sets []cacheSet
	mask uint64
}

// newCacheSim builds a cache covering capacityBytes with 64-byte lines and
// 8-way associativity. capacityBytes is rounded to a power-of-two set count.
func newCacheSim(capacityBytes int) *cacheSim {
	lines := capacityBytes / LineSize
	numSets := 1
	for numSets*cacheWays < lines {
		numSets <<= 1
	}
	return &cacheSim{sets: make([]cacheSet, numSets), mask: uint64(numSets - 1)}
}

// resident reports whether tag is in the set. Safe without mu.
func (s *cacheSet) resident(tag uint64) bool {
	for i := range s.tags {
		if s.tags[i].Load() == tag {
			return true
		}
	}
	return false
}

// touch probes the cache for the given line number and installs it on a
// miss. It reports whether the probe hit. The hit path takes no lock and
// writes nothing; a miss re-checks under the set lock so that two
// concurrent missers of one line install it once.
func (c *cacheSim) touch(line uint64) bool {
	set := &c.sets[line&c.mask]
	tag := line + 1
	if set.resident(tag) {
		return true
	}
	set.mu.Lock()
	if set.resident(tag) {
		set.mu.Unlock()
		return true
	}
	set.tags[set.hand].Store(tag)
	set.hand = (set.hand + 1) % cacheWays
	set.mu.Unlock()
	return false
}

// invalidate drops the line if resident (used by crash simulation so that
// post-crash reads are cold again).
func (c *cacheSim) invalidate(line uint64) {
	set := &c.sets[line&c.mask]
	tag := line + 1
	set.mu.Lock()
	for i := range set.tags {
		if set.tags[i].Load() == tag {
			set.tags[i].Store(0)
		}
	}
	set.mu.Unlock()
}

// invalidateAll empties the cache (full power-cycle).
func (c *cacheSim) invalidateAll() {
	for i := range c.sets {
		set := &c.sets[i]
		set.mu.Lock()
		for j := range set.tags {
			set.tags[j].Store(0)
		}
		set.hand = 0
		set.mu.Unlock()
	}
}
