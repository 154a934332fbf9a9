// Package diskstore implements the paper's disk baseline (§7.3): a
// traditional page-based graph store — 4 KiB slotted pages behind a
// buffer pool with CLOCK eviction, a write-ahead log whose commit fsync
// dominates update latency, and a DRAM hash index over node properties.
// It stands in for the "open-source native graph database storing primary
// data on SSD with an additional DRAM index" used as the DISK baseline.
//
// The store deliberately keeps the disk-era cost structure the paper
// contrasts against PMem: block-granular access (reading one 64-byte
// record drags in a whole page), buffer-pool bookkeeping on every access,
// and synchronous log flushes on commit.
package diskstore

import (
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the disk block size.
const PageSize = 4096

// Latencies models the simulated SSD (Intel DC P4501-class; values keep
// the paper's order-of-magnitude gap to PMem visible above scheduler
// noise).
type Latencies struct {
	Read  time.Duration // random 4 KiB read
	Write time.Duration // 4 KiB write (buffered)
	Fsync time.Duration // log flush barrier
	// Hit is the cost of a buffer-pool hit: latch acquisition, hash
	// probe, pin bookkeeping and record indirection. Traditional
	// disk-era engines pay this on every page access even when the
	// working set is fully cached — the reason the paper's DISK-i
	// baseline stays behind the PMem engine on hot runs.
	Hit time.Duration
}

// DefaultLatencies returns SSD-like defaults.
func DefaultLatencies() Latencies {
	return Latencies{
		Read:  60 * time.Microsecond,
		Write: 20 * time.Microsecond,
		Fsync: 120 * time.Microsecond,
		Hit:   2 * time.Microsecond,
	}
}

// DiskStats counts device-level operations.
type DiskStats struct {
	Reads  atomic.Uint64
	Writes atomic.Uint64
	Fsyncs atomic.Uint64
}

// disk is the simulated block device: an in-memory page array with
// injected latency.
type disk struct {
	mu    sync.Mutex
	pages map[uint64][]byte
	lat   Latencies
	stats *DiskStats
}

func newDisk(lat Latencies, stats *DiskStats) *disk {
	return &disk{pages: make(map[uint64][]byte), lat: lat, stats: stats}
}

func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}

// read copies page pid into buf, paying the random-read latency.
func (d *disk) read(pid uint64, buf []byte) {
	d.stats.Reads.Add(1)
	spin(d.lat.Read)
	d.mu.Lock()
	p := d.pages[pid]
	d.mu.Unlock()
	if p == nil {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	copy(buf, p)
}

// write stores buf as page pid.
func (d *disk) write(pid uint64, buf []byte) {
	d.stats.Writes.Add(1)
	spin(d.lat.Write)
	p := make([]byte, PageSize)
	copy(p, buf)
	d.mu.Lock()
	d.pages[pid] = p
	d.mu.Unlock()
}

// fsync is the commit barrier.
func (d *disk) fsync() {
	d.stats.Fsyncs.Add(1)
	spin(d.lat.Fsync)
}

// --- buffer pool ---

type frame struct {
	pid   uint64
	data  []byte
	dirty bool
	ref   bool
	valid bool
}

// bufferPool is a CLOCK-eviction page cache. All methods require the
// store's global lock.
type bufferPool struct {
	disk   *disk
	frames []frame
	index  map[uint64]int
	hand   int
}

func newBufferPool(d *disk, capacity int) *bufferPool {
	bp := &bufferPool{
		disk:   d,
		frames: make([]frame, capacity),
		index:  make(map[uint64]int, capacity),
	}
	for i := range bp.frames {
		bp.frames[i].data = make([]byte, PageSize)
	}
	return bp
}

// get pins nothing (single global lock): it returns the frame data for
// pid, reading it from disk on a miss.
func (bp *bufferPool) get(pid uint64) []byte {
	if fi, ok := bp.index[pid]; ok {
		spin(bp.disk.lat.Hit)
		bp.frames[fi].ref = true
		return bp.frames[fi].data
	}
	fi := bp.evict()
	f := &bp.frames[fi]
	if f.valid {
		if f.dirty {
			bp.disk.write(f.pid, f.data)
		}
		delete(bp.index, f.pid)
	}
	bp.disk.read(pid, f.data)
	f.pid, f.dirty, f.ref, f.valid = pid, false, true, true
	bp.index[pid] = fi
	return f.data
}

// markDirty flags the resident page as modified.
func (bp *bufferPool) markDirty(pid uint64) {
	if fi, ok := bp.index[pid]; ok {
		bp.frames[fi].dirty = true
	}
}

// evict runs the CLOCK hand to find a victim frame.
func (bp *bufferPool) evict() int {
	for {
		f := &bp.frames[bp.hand]
		i := bp.hand
		bp.hand = (bp.hand + 1) % len(bp.frames)
		if !f.valid {
			return i
		}
		if f.ref {
			f.ref = false
			continue
		}
		return i
	}
}

// flushAll writes back every dirty page (checkpoint).
func (bp *bufferPool) flushAll() {
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.valid && f.dirty {
			bp.disk.write(f.pid, f.data)
			f.dirty = false
		}
	}
	bp.disk.fsync()
}
