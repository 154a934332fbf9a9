package pmem

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

func TestCacheSimHitAfterInstall(t *testing.T) {
	c := newCacheSim(64 * 1024)
	if c.touch(5) {
		t.Error("first touch reported a hit")
	}
	if !c.touch(5) {
		t.Error("second touch reported a miss")
	}
}

func TestCacheSimEviction(t *testing.T) {
	c := newCacheSim(cacheWays * LineSize) // exactly one set
	if len(c.sets) != 1 {
		t.Fatalf("expected 1 set, got %d", len(c.sets))
	}
	for i := uint64(0); i < cacheWays; i++ {
		c.touch(i)
	}
	c.touch(100) // evicts one resident line
	hits := 0
	for i := uint64(0); i < cacheWays; i++ {
		// touch() installs on miss, which can evict lines we are about to
		// probe; count hits via direct tag inspection instead.
		if c.sets[0].resident(i + 1) {
			hits++
		}
	}
	if hits != cacheWays-1 {
		t.Errorf("%d original lines resident, want %d", hits, cacheWays-1)
	}
}

func TestCacheSimInvalidate(t *testing.T) {
	c := newCacheSim(64 * 1024)
	c.touch(7)
	c.invalidate(7)
	if c.touch(7) {
		t.Error("invalidated line still resident")
	}
	c.invalidateAll()
	if c.touch(7) {
		t.Error("line resident after invalidateAll")
	}
}

func TestCacheSimLinesMapToDistinctSets(t *testing.T) {
	c := newCacheSim(256 * 1024)
	n := uint64(len(c.sets))
	// Adjacent lines must spread across sets so sequential scans do not
	// thrash a single set.
	if (0&c.mask) == (1&c.mask) && n > 1 {
		t.Error("adjacent lines map to the same set")
	}
}

func TestCacheSimConcurrentTouch(t *testing.T) {
	c := newCacheSim(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < 10000; i++ {
				c.touch(seed*10000 + i)
				c.touch(seed * 10000) // repeated hot line
			}
		}(uint64(w))
	}
	wg.Wait() // success criterion: no race detector report, no panic
}

// lockedCacheSim is the mutex-only cache the lock-free cacheSim replaced,
// kept as the reference for TestCacheSimLockFreeMatchesLocked.
type lockedCacheSim struct {
	sets []lockedCacheSet
	mask uint64
}

type lockedCacheSet struct {
	mu   sync.Mutex
	tags [cacheWays]uint64
	hand uint8
}

func (c *lockedCacheSim) touch(line uint64) bool {
	set := &c.sets[line&c.mask]
	tag := line + 1
	set.mu.Lock()
	defer set.mu.Unlock()
	for i := range set.tags {
		if set.tags[i] == tag {
			return true
		}
	}
	set.tags[set.hand] = tag
	set.hand = (set.hand + 1) % cacheWays
	return false
}

func (c *lockedCacheSim) invalidate(line uint64) {
	set := &c.sets[line&c.mask]
	set.mu.Lock()
	defer set.mu.Unlock()
	for i := range set.tags {
		if set.tags[i] == line+1 {
			set.tags[i] = 0
		}
	}
}

func (c *lockedCacheSim) invalidateAll() {
	for i := range c.sets {
		set := &c.sets[i]
		set.mu.Lock()
		set.tags = [cacheWays]uint64{}
		set.hand = 0
		set.mu.Unlock()
	}
}

// A single thread must see exactly the hit/miss sequence of the mutex-only
// cache: the lock-free probe changes who synchronizes, not what is
// resident.
func TestCacheSimLockFreeMatchesLocked(t *testing.T) {
	const capacity = 16 * 1024 // 32 sets: small enough to evict constantly
	c := newCacheSim(capacity)
	ref := &lockedCacheSim{sets: make([]lockedCacheSet, len(c.sets)), mask: c.mask}
	rng := rand.New(rand.NewSource(15))
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		var line uint64
		if rng.Intn(3) == 0 {
			line = uint64(rng.Intn(64)) // hot lines
		} else {
			line = uint64(rng.Intn(4 * capacity / LineSize))
		}
		switch r := rng.Intn(1000); {
		case r == 0:
			c.invalidateAll()
			ref.invalidateAll()
		case r < 20:
			c.invalidate(line)
			ref.invalidate(line)
		default:
			got, want := c.touch(line), ref.touch(line)
			if got != want {
				t.Fatalf("access %d (line %d): hit=%v, reference hit=%v", i, line, got, want)
			}
			if got {
				hits++
			}
		}
	}
	if hits == 0 || hits == n {
		t.Fatalf("degenerate trace: %d hits of %d accesses", hits, n)
	}
}

// Neighbouring cache sets, and neighbouring counter stripes, must not
// share a cache line.
func TestPaddedSizes(t *testing.T) {
	if got := unsafe.Sizeof(cacheSet{}); got != 2*LineSize {
		t.Errorf("cacheSet is %d bytes, want %d", got, 2*LineSize)
	}
	if got := unsafe.Sizeof(statStripe{}); got != 2*LineSize {
		t.Errorf("statStripe is %d bytes, want %d", got, 2*LineSize)
	}
}
