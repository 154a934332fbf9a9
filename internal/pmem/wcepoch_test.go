package pmem

import (
	"math/rand"
	"testing"
	"time"
)

// wcDevice is a persistent device whose only injected latency is a 1 ns
// block write: enough to switch the write-combining accounting on without
// making the tests below wait for it.
func wcDevice(size int) *Device {
	return New(Config{Name: "wc", Size: size, Persistent: true, Profile: Profile{WriteBlock: 1}})
}

// wcModel is the reference the epoch table replaced: the set of blocks
// charged since the last barrier as a Go map, emptied at every barrier
// (by making a new one: clear walks the capacity a large epoch left).
type wcModel struct {
	blocks map[uint64]struct{}
	writes uint64
}

func (m *wcModel) flush(off, n uint64) {
	for line := off / LineSize; line <= (off+n-1)/LineSize; line++ {
		block := line * LineSize / BlockSize
		if _, ok := m.blocks[block]; !ok {
			m.blocks[block] = struct{}{}
			m.writes++
		}
	}
}

func (m *wcModel) barrier() { m.blocks = make(map[uint64]struct{}) }

// collidingBlocks returns the largest set of blocks below limit that share
// one home slot in a kept-size table, found by asking the table itself.
func collidingBlocks(limit uint64) []uint64 {
	e := newWCEpoch()
	byHome := make(map[int][]uint64)
	best := -1
	for b := uint64(0); b < limit; b++ {
		e.charge(b)
		home := -1
		for i, s := range e.slots {
			if s.epoch == e.epoch {
				home = i
				break
			}
		}
		e.end()
		byHome[home] = append(byHome[home], b)
		if best < 0 || len(byHome[home]) > len(byHome[best]) {
			best = home
		}
	}
	return byHome[best]
}

// TestWriteCombiningMatchesMapModel drives random Flush/Drain/Crash
// sequences against the map model and compares BlockWrites after every
// step: over 10⁵ epochs, with epochs several times the kept table (so the
// table grows mid-epoch and shrinks at the barrier), and with blocks that
// collide in the table flushed and re-flushed in random order.
func TestWriteCombiningMatchesMapModel(t *testing.T) {
	const (
		size   = 3 << 19
		blocks = size / BlockSize
		seed   = 19
	)
	epochs := 100_000
	if raceEnabled {
		epochs = 5_000 // one goroutine: nothing for the detector to find
	}
	rng := rand.New(rand.NewSource(seed))
	d := wcDevice(size)
	m := new(wcModel)
	m.barrier()
	colliding := collidingBlocks(blocks)
	if len(colliding) < 3 {
		t.Fatalf("only %d colliding blocks among %d: the probe path is not exercised", len(colliding), blocks)
	}
	step := 0
	flush := func(off, n uint64) {
		t.Helper()
		d.Flush(off, n)
		m.flush(off, n)
		step++
		if got := d.Stats.BlockWrites.Load(); got != m.writes {
			t.Fatalf("seed %d step %d: Flush(%d,%d): BlockWrites = %d, model says %d", seed, step, off, n, got, m.writes)
		}
	}
	grown := 0
	for epoch := 0; epoch < epochs; epoch++ {
		switch k := rng.Intn(1000); {
		case k < 2:
			// Oversized: up to 5000 distinct blocks, in random order,
			// every fourth one flushed again.
			for _, b := range rng.Perm(blocks)[:1100+rng.Intn(3900)] {
				flush(uint64(b)*BlockSize, LineSize)
				if b%4 == 0 {
					flush(uint64(b)*BlockSize+LineSize, 2*LineSize)
				}
			}
			if len(d.epoch.slots) > wcKeptSlots {
				grown++
			}
		case k < 100:
			// The colliding set, twice over, in random order.
			for _, i := range rng.Perm(2 * len(colliding)) {
				flush(colliding[i%len(colliding)]*BlockSize, LineSize)
			}
		default:
			// Commit-sized: a few short ranges near each other, so lines
			// of one block recur and ranges straddle block boundaries.
			base := uint64(rng.Intn(blocks-8)) * BlockSize
			for i := rng.Intn(8); i >= 0; i-- {
				off := base + uint64(rng.Intn(7*BlockSize/8))*8
				flush(off, uint64(1+rng.Intn(2*BlockSize)))
			}
		}
		if rng.Intn(1000) == 0 {
			d.Crash()
		} else {
			d.Drain()
		}
		m.barrier()
		if len(d.epoch.slots) != wcKeptSlots {
			t.Fatalf("seed %d epoch %d: table has %d slots after a barrier, want %d", seed, epoch, len(d.epoch.slots), wcKeptSlots)
		}
	}
	if grown == 0 {
		t.Fatalf("seed %d: no epoch outgrew the kept table; the growth path is not exercised", seed)
	}
}

// barrierLoop is the steady-state shape of a commit's persists: two line
// flushes in different blocks and a barrier.
func barrierLoop(d *Device, n int) {
	for i := 0; i < n; i++ {
		d.Flush(0, 8)
		d.Flush(BlockSize, 8)
		d.Drain()
	}
}

// largeEpoch flushes one line in each of n distinct blocks and ends the
// epoch.
func largeEpoch(d *Device, n int) {
	for b := 0; b < n; b++ {
		d.Flush(uint64(b)*BlockSize, 8)
	}
	d.Drain()
}

// TestBarrierCostIndependentOfHistory: a barrier costs the same whatever
// the device has been through. With the map, one 1000-block epoch (any
// bulk load has them) left a table every later Drain cleared slot by slot
// — 4.7× the fresh-device cost.
func TestBarrierCostIndependentOfHistory(t *testing.T) {
	fresh, used := wcDevice(2<<20), wcDevice(2<<20)
	largeEpoch(used, 1000)
	// Best of five, the two devices taking turns so that a noisy neighbour
	// slows both; the whole measurement is retried before it fails.
	ratio := func() float64 {
		const iters = 20000
		best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
		for try := 0; try < 5; try++ {
			for i, d := range []*Device{fresh, used} {
				start := time.Now()
				barrierLoop(d, iters)
				best[i] = min(best[i], time.Since(start))
			}
		}
		return float64(best[1]) / float64(best[0])
	}
	r := ratio()
	for retry := 0; retry < 2 && r > 1.5; retry++ {
		r = ratio()
	}
	if r > 1.5 {
		t.Errorf("flush+flush+Drain after a 1000-block epoch costs %.2f× what it costs on a fresh device, want ≤ 1.5×", r)
	}
	if allocs := testing.AllocsPerRun(100, func() { barrierLoop(used, 10) }); allocs != 0 {
		t.Errorf("steady-state barriers allocate %.1f times per 10, want 0", allocs)
	}
	largeEpoch(used, 5000)
	if got := len(used.epoch.slots); got != wcKeptSlots {
		t.Errorf("table has %d slots after a 5000-block epoch and its Drain, want the kept %d", got, wcKeptSlots)
	}
}
