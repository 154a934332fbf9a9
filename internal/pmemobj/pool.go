// Package pmemobj provides a PMDK/libpmemobj-like programming layer on top
// of the simulated device of package pmem: persistent pools with a root
// object, 16-byte persistent pointers, failure-atomic undo-log transactions
// and a segregated free-list allocator with group allocation.
//
// The package reproduces the cost structure the paper reasons about:
// allocations are expensive because they require logging and cache-line
// flushes (C5), persistent pointers need a translation step on every
// dereference (C6), and transactional updates pay undo-logging overhead
// (§5.1 "this comes with a small overhead").
package pmemobj

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"poseidon/internal/pmem"
)

// Errors returned by pool operations.
var (
	ErrOutOfMemory = errors.New("pmemobj: out of persistent memory")
	ErrLogFull     = errors.New("pmemobj: transaction undo log full")
	ErrBadPool     = errors.New("pmemobj: not a pmemobj pool")
	ErrBadFree     = errors.New("pmemobj: free of unallocated or corrupt block")
)

// Header layout (all fields 8 bytes, offsets in bytes from pool start).
const (
	hdrMagic    = 0
	hdrVersion  = 8
	hdrUUID     = 16
	hdrRoot     = 24
	hdrHeapTop  = 32
	hdrLogOff   = 40
	hdrLogCap   = 48
	hdrFreeHead = 64 // array of numClasses free-list heads

	poolMagic   = 0x504F534549444F4E // "POSEIDON"
	poolVersion = 1

	headerSize = hdrFreeHead + numClasses*8
)

// Pool is a persistent memory pool: a formatted region of a Device holding
// a root object, an allocator and an undo log.
type Pool struct {
	dev  *pmem.Device
	uuid uint64

	// mu serializes built-in-log transactions and allocator mutations.
	// Plain data reads/writes through the device do not take it, and lane
	// transactions (RunTxLane) serialize on their lane's own mutex.
	mu sync.Mutex

	logOff  uint64
	logCap  uint64
	scratch txScratch // of the built-in log's transaction; guarded by mu

	// laneMu guards the lanes slice during attachment; steady-state lane
	// lookups read the slice without it (lanes are attached at open time,
	// before concurrent transactions start).
	laneMu sync.Mutex
	lanes  []*poolLane
}

// poolLane is an additional undo-log region with its own transaction
// mutex, giving the engine one independent failure-atomic commit pipeline
// per shard (the Blizzard-style per-shard persistence domain).
type poolLane struct {
	mu      sync.Mutex
	off     uint64
	cap     uint64
	scratch txScratch // of the lane's transaction; guarded by mu
}

// AttachLane registers an undo-log lane backed by the caller-allocated
// region [logOff, logOff+logCap). If the region holds entries from a
// transaction in flight at a crash, they are rolled back first — callers
// must therefore attach every lane recorded in their durable metadata
// before writing any data the lane's pending transaction may cover.
// Returns the lane id for RunTxLane (≥ 1; lane 0 is the built-in log).
func (p *Pool) AttachLane(logOff, logCap uint64) (int, error) {
	if logCap < logDataStart+16 || logOff+logCap > uint64(p.dev.Size()) {
		return 0, fmt.Errorf("pmemobj: bad lane region [%d,+%d)", logOff, logCap)
	}
	if count := p.dev.ReadU64(logOff); count != 0 {
		p.applyUndoAt(logOff, count)
	}
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	p.lanes = append(p.lanes, &poolLane{off: logOff, cap: logCap})
	return len(p.lanes), nil
}

// lane returns the attached lane with the given id (≥ 1), or nil.
func (p *Pool) lane(id int) *poolLane {
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	if id < 1 || id > len(p.lanes) {
		return nil
	}
	return p.lanes[id-1]
}

// Device returns the underlying device for direct data access.
func (p *Pool) Device() *pmem.Device { return p.dev }

// UUID returns the pool's persistent identity.
func (p *Pool) UUID() uint64 { return p.uuid }

// Options configures pool creation.
type Options struct {
	// LogCap is the undo log capacity in bytes (default 1 MiB).
	LogCap uint64
	// UUID overrides the random pool identity (useful for deterministic
	// tests). Zero picks a random one.
	UUID uint64
}

// Create formats dev as a fresh pool and registers it. The device contents
// are assumed to be zero or garbage; everything is overwritten.
func Create(dev *pmem.Device, opts Options) (*Pool, error) {
	logCap := opts.LogCap
	if logCap == 0 {
		logCap = 256 << 10
	}
	logCap = align(logCap, pmem.LineSize)
	uuid := opts.UUID
	for uuid == 0 {
		uuid = rand.Uint64()
	}
	logOff := align(headerSize, pmem.LineSize)
	heapStart := align(logOff+logCap, pmem.BlockSize)
	if heapStart >= uint64(dev.Size()) {
		return nil, fmt.Errorf("%w: device too small for metadata", ErrOutOfMemory)
	}

	p := &Pool{dev: dev, uuid: uuid, logOff: logOff, logCap: logCap}
	dev.Zero(0, heapStart)
	dev.WriteU64(hdrUUID, uuid)
	dev.WriteU64(hdrRoot, 0)
	dev.WriteU64(hdrHeapTop, heapStart)
	dev.WriteU64(hdrLogOff, logOff)
	dev.WriteU64(hdrLogCap, logCap)
	dev.WriteU64(logOff, 0) // empty undo log
	dev.Persist(0, heapStart)
	// The magic is written last so a torn format attempt is detected as
	// "not a pool" rather than opened half-initialized.
	dev.WriteU64(hdrVersion, poolVersion)
	dev.WriteU64(hdrMagic, poolMagic)
	dev.Persist(0, 16)
	register(p)
	return p, nil
}

// Open validates an existing pool on dev, runs crash recovery (rolling
// back any in-flight transaction found in the undo log) and registers the
// pool.
func Open(dev *pmem.Device) (*Pool, error) {
	if dev.Size() < headerSize {
		return nil, ErrBadPool
	}
	if dev.ReadU64(hdrMagic) != poolMagic {
		return nil, ErrBadPool
	}
	if v := dev.ReadU64(hdrVersion); v != poolVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadPool, v)
	}
	p := &Pool{
		dev:    dev,
		uuid:   dev.ReadU64(hdrUUID),
		logOff: dev.ReadU64(hdrLogOff),
		logCap: dev.ReadU64(hdrLogCap),
	}
	if err := p.recover(); err != nil {
		return nil, err
	}
	p.recoverMWCAS()
	register(p)
	return p, nil
}

// Root returns the offset of the root object, or 0 if none was set.
func (p *Pool) Root() uint64 { return p.dev.ReadU64(hdrRoot) }

// LogCap returns the built-in undo log's capacity in bytes. Callers
// attaching lanes can size them to match, so any transaction that fits
// the built-in log fits a lane.
func (p *Pool) LogCap() uint64 { return p.logCap }

// LaneCap returns the undo-log capacity in bytes of the given lane
// (lane 0 is the built-in log; see LogHeaderBytes for the fixed header
// the capacity includes). Zero for unknown lanes. Group-commit leaders
// size epochs against this so a batch can never overflow its shard's
// lane mid-epoch.
func (p *Pool) LaneCap(id int) uint64 {
	if id == 0 {
		return p.logCap
	}
	l := p.lane(id)
	if l == nil {
		return 0
	}
	return l.cap
}

// SetRoot durably points the pool at its root object. The write is 8 bytes
// and therefore failure-atomic (C4).
func (p *Pool) SetRoot(off uint64) {
	p.dev.WriteU64(hdrRoot, off)
	p.dev.Persist(hdrRoot, 8)
}

// Close unregisters the pool from the runtime registry.
func (p *Pool) Close() { unregister(p) }

// LogPending returns the number of undo-log entries currently marked
// valid across the built-in log and every attached lane. After Open and
// AttachLane (which roll back any in-flight transaction) and outside a
// running transaction it must be zero; the fsck undo-log pass checks
// exactly that.
func (p *Pool) LogPending() uint64 {
	n := p.dev.ReadU64(p.logOff)
	p.laneMu.Lock()
	defer p.laneMu.Unlock()
	for _, l := range p.lanes {
		n += p.dev.ReadU64(l.off)
	}
	return n
}

func align(v, a uint64) uint64 { return (v + a - 1) / a * a }

// --- Persistent pointers (C6) ---

// PPtr is a PMDK-style 16-byte persistent pointer: a pool identity plus an
// offset within that pool. It stays valid across restarts, unlike a
// virtual address. Dereferencing requires a registry lookup, which is why
// design goal DG6 says to convert it to an offset or virtual reference
// once and reuse that.
type PPtr struct {
	Pool uint64
	Off  uint64
}

// IsNull reports whether the pointer is the null persistent pointer.
func (pp PPtr) IsNull() bool { return pp.Pool == 0 && pp.Off == 0 }

var registry struct {
	mu    sync.RWMutex
	pools map[uint64]*Pool
}

func register(p *Pool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.pools == nil {
		registry.pools = make(map[uint64]*Pool)
	}
	registry.pools[p.uuid] = p
}

func unregister(p *Pool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	delete(registry.pools, p.uuid)
}

// Registered returns the number of open pools in the runtime registry; a
// pool stays there — and reachable — until Close.
func Registered() int {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return len(registry.pools)
}

// Resolve translates a persistent pointer into its pool, paying the
// registry-lookup cost that makes persistent pointers slower than plain
// offsets.
func Resolve(pp PPtr) (*Pool, uint64, error) {
	registry.mu.RLock()
	p := registry.pools[pp.Pool]
	registry.mu.RUnlock()
	if p == nil {
		return nil, 0, fmt.Errorf("pmemobj: unresolvable persistent pointer to pool %#x", pp.Pool)
	}
	return p, pp.Off, nil
}

// WritePPtr stores a persistent pointer as two consecutive 8-byte words at
// off. Note the 16-byte store is not failure-atomic; callers needing
// atomicity must snapshot it in a transaction (this is exactly the paper's
// argument for 8-byte offsets in DD2).
//
//pmem:deferred-flush primitive store helper; callers cover the 16 bytes with their undo log or an explicit Persist
func (p *Pool) WritePPtr(off uint64, pp PPtr) {
	p.dev.WriteU64(off, pp.Pool)
	p.dev.WriteU64(off+8, pp.Off)
}

// ReadPPtr loads a persistent pointer stored at off.
func (p *Pool) ReadPPtr(off uint64) PPtr {
	return PPtr{Pool: p.dev.ReadU64(off), Off: p.dev.ReadU64(off + 8)}
}
