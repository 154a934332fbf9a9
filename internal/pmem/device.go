// Package pmem simulates byte-addressable persistent memory (Intel Optane
// DCPMM style) and plain DRAM behind a single Device abstraction.
//
// A persistent Device maintains two views of its contents:
//
//   - the CPU view: what loads and stores observe immediately, and
//   - the media view: what survives a simulated power failure.
//
// A store reaches the media view only once the cache lines containing it
// have been flushed (Flush, the clwb equivalent). Crash discards the CPU
// view and reloads it from media, so crash consistency is an observable,
// testable property of code built on this package rather than an
// assumption.
//
// The device also injects latency according to a Profile and a simulated
// CPU cache, modelling the paper's PMem characteristics C1 (higher latency
// than DRAM), C2 (read/write asymmetry) and C3 (256-byte internal write
// blocks with write combining). Characteristic C4 (8-byte failure-atomic
// stores) is modelled by making the 8-byte word the unit of storage:
// WriteU64 is atomic, anything larger must be made failure-atomic in
// software (see package pmemobj).
package pmem

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

const wordsPerLine = LineSize / 8

// Config configures a simulated device.
type Config struct {
	// Name identifies the device in error messages.
	Name string
	// Size is the device capacity in bytes. It is rounded up to a
	// multiple of the cache line size.
	Size int
	// Profile is the latency model. A zero Profile injects no latency.
	Profile Profile
	// CacheBytes is the capacity of the simulated CPU cache. Zero
	// disables the cache, making every load a miss when the profile
	// injects read latency.
	CacheBytes int
	// Persistent selects whether the device tracks a durable media view.
	// A volatile (DRAM) device loses everything on Crash.
	Persistent bool
	// StrictFlush enables the runtime flush checker on a persistent
	// device: a CPU-visible read of a line that was stored but never
	// flushed before a Drain barrier panics (see strict.go). Also
	// enabled by setting POSEIDON_PMEM_STRICT=1 in the environment.
	StrictFlush bool
}

// Device is a simulated memory device. All 8-byte accesses are atomic and
// safe for concurrent use; accesses narrower than 8 bytes are not atomic
// and must be externally synchronized (exactly like real hardware under
// the C4 guarantee).
type Device struct {
	// Set by New and read by every access. The pad keeps them a full
	// cache line away from the fields below, which accesses write.
	name       string
	words      []uint64 // CPU view
	media      []uint64 // durable view; nil for volatile devices
	prof       Profile
	hasLatency bool
	cache      *cacheSim
	persistent bool
	strict     *strictState // non-nil only in strict flush-checking mode
	// crashctl is the armed crash-schedule controller (crashctl.go);
	// nil when disarmed.
	crashctl atomic.Pointer[crashCtl]
	_        [LineSize]byte

	// mediaMu orders media-view writers: Flush holds it shared per line,
	// Crash and Load hold it exclusively so a crash never observes a
	// half-copied line from a concurrent flusher.
	mediaMu sync.RWMutex

	epochMu sync.Mutex
	epoch   wcEpoch // 256B blocks charged since the last Drain

	// Stats counts accesses; safe for concurrent use.
	Stats Stats
}

// New creates a device. It panics on a non-positive size, which is always
// a programming error.
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("pmem: device size must be positive")
	}
	size := (cfg.Size + LineSize - 1) / LineSize * LineSize
	d := &Device{
		name:       cfg.Name,
		words:      make([]uint64, size/8),
		prof:       cfg.Profile,
		hasLatency: !cfg.Profile.zero(),
		persistent: cfg.Persistent,
	}
	if d.hasLatency {
		d.epoch = newWCEpoch()
	}
	if cfg.Persistent {
		d.media = make([]uint64, size/8)
		if cfg.StrictFlush || strictEnvEnabled() {
			d.strict = newStrictState()
		}
	}
	if cfg.CacheBytes > 0 {
		d.cache = newCacheSim(cfg.CacheBytes)
	}
	return d
}

// NewDRAM is a convenience constructor for a volatile zero-latency device.
func NewDRAM(size int) *Device {
	return New(Config{Name: "dram", Size: size})
}

// NewPMem is a convenience constructor for a persistent device with the
// default Optane-like latency profile and a 4 MiB simulated CPU cache.
func NewPMem(size int) *Device {
	return New(Config{
		Name:       "pmem",
		Size:       size,
		Profile:    PMemProfile(),
		CacheBytes: 4 << 20,
		Persistent: true,
	})
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return len(d.words) * 8 }

// Persistent reports whether the device survives Crash.
func (d *Device) Persistent() bool { return d.persistent }

// Name returns the configured device name.
func (d *Device) Name() string { return d.name }

func (d *Device) checkRange(off, n uint64) {
	if off+n > uint64(len(d.words))*8 || off+n < off {
		panic(fmt.Sprintf("pmem: %s: access [%d,%d) out of range (size %d)",
			d.name, off, off+n, len(d.words)*8))
	}
}

// chargeRead applies read latency for the line containing off, counting
// the probe on st.
func (d *Device) chargeRead(st *statStripe, off uint64) {
	if !d.hasLatency {
		return
	}
	line := off / LineSize
	if d.cache != nil && d.cache.touch(line) {
		st.cacheHits.Add(1)
		return
	}
	st.cacheMisses.Add(1)
	spinWait(d.prof.ReadMiss)
}

// ReadU64 atomically loads the 8-byte word at off, which must be 8-byte
// aligned.
func (d *Device) ReadU64(off uint64) uint64 {
	d.checkRange(off, 8)
	st := d.Stats.stripe(off)
	st.reads.Add(1)
	d.chargeRead(st, off)
	d.strictRead(off, 8)
	return atomic.LoadUint64(&d.words[off/8])
}

// WriteU64 atomically stores v at off (8-byte aligned). The store is
// volatile until the containing line is flushed.
func (d *Device) WriteU64(off uint64, v uint64) {
	d.checkRange(off, 8)
	d.Stats.stripe(off).writes.Add(1)
	d.crashPoint(EvStore)
	if d.cache != nil {
		d.cache.touch(off / LineSize) // write-allocate
	}
	d.strictStore(off, 8)
	atomic.StoreUint64(&d.words[off/8], v)
}

// CompareAndSwapU64 performs an atomic CaS on the word at off. This is the
// primitive the MVTO protocol uses for write-locking records (§5.1).
func (d *Device) CompareAndSwapU64(off, old, new uint64) bool {
	d.checkRange(off, 8)
	st := d.Stats.stripe(off)
	st.reads.Add(1)
	st.writes.Add(1)
	d.crashPoint(EvStore)
	d.chargeRead(st, off)
	d.strictCAS(off, 8)
	return atomic.CompareAndSwapUint64(&d.words[off/8], old, new)
}

// ReadU32 loads the 4-byte value at off (4-byte aligned). Not atomic with
// respect to writers of the other half of the containing word.
func (d *Device) ReadU32(off uint64) uint32 {
	d.checkRange(off, 4)
	st := d.Stats.stripe(off)
	st.reads.Add(1)
	d.chargeRead(st, off)
	d.strictRead(off, 4)
	w := atomic.LoadUint64(&d.words[off/8])
	if off%8 == 0 {
		return uint32(w)
	}
	return uint32(w >> 32)
}

// WriteU32 stores a 4-byte value at off (4-byte aligned). The containing
// word is updated with a read-modify-write; callers must hold the record's
// write lock, mirroring the hardware rule that only 8-byte stores are
// failure-atomic (C4).
func (d *Device) WriteU32(off uint64, v uint32) {
	d.checkRange(off, 4)
	d.Stats.stripe(off).writes.Add(1)
	d.crashPoint(EvStore)
	if d.cache != nil {
		d.cache.touch(off / LineSize)
	}
	d.strictStore(off, 4)
	idx := off / 8
	w := atomic.LoadUint64(&d.words[idx])
	if off%8 == 0 {
		w = (w &^ 0xFFFFFFFF) | uint64(v)
	} else {
		w = (w & 0xFFFFFFFF) | uint64(v)<<32
	}
	atomic.StoreUint64(&d.words[idx], w)
}

// ReadWords bulk-loads len(dst) words starting at off (8-byte aligned).
func (d *Device) ReadWords(off uint64, dst []uint64) {
	d.checkRange(off, uint64(len(dst))*8)
	st := d.Stats.stripe(off)
	st.reads.Add(uint64(len(dst)))
	d.strictRead(off, uint64(len(dst))*8)
	for i := range dst {
		if i%wordsPerLine == 0 {
			d.chargeRead(st, off+uint64(i)*8)
		}
		dst[i] = atomic.LoadUint64(&d.words[off/8+uint64(i)])
	}
}

// WriteWords bulk-stores src starting at off (8-byte aligned).
func (d *Device) WriteWords(off uint64, src []uint64) {
	d.checkRange(off, uint64(len(src))*8)
	d.Stats.stripe(off).writes.Add(uint64(len(src)))
	d.crashPoint(EvStore)
	d.strictStore(off, uint64(len(src))*8)
	for i, v := range src {
		if d.cache != nil && (i%wordsPerLine == 0 || i == 0) {
			d.cache.touch((off + uint64(i)*8) / LineSize)
		}
		atomic.StoreUint64(&d.words[off/8+uint64(i)], v)
	}
}

// ReadBytes fills dst from the device starting at off, which must be
// 8-byte aligned. Partial trailing words are handled.
func (d *Device) ReadBytes(off uint64, dst []byte) {
	d.checkRange(off, uint64(len(dst)))
	if off%8 != 0 {
		panic("pmem: ReadBytes offset must be 8-byte aligned")
	}
	d.strictRead(off, uint64(len(dst)))
	st := d.Stats.stripe(off)
	var buf [8]byte
	for i := 0; i < len(dst); i += 8 {
		if uint64(i)%LineSize == 0 {
			d.chargeRead(st, off+uint64(i))
		}
		w := atomic.LoadUint64(&d.words[off/8+uint64(i/8)])
		binary.LittleEndian.PutUint64(buf[:], w)
		copy(dst[i:], buf[:])
	}
	st.reads.Add(uint64((len(dst) + 7) / 8))
}

// WriteBytes stores src to the device starting at off (8-byte aligned). A
// partial trailing word preserves the bytes beyond src.
func (d *Device) WriteBytes(off uint64, src []byte) {
	d.checkRange(off, uint64(len(src)))
	if off%8 != 0 {
		panic("pmem: WriteBytes offset must be 8-byte aligned")
	}
	d.crashPoint(EvStore)
	d.strictStore(off, uint64(len(src)))
	var buf [8]byte
	for i := 0; i < len(src); i += 8 {
		idx := off/8 + uint64(i/8)
		if d.cache != nil && uint64(i)%LineSize == 0 {
			d.cache.touch((off + uint64(i)) / LineSize)
		}
		if len(src)-i >= 8 {
			atomic.StoreUint64(&d.words[idx], binary.LittleEndian.Uint64(src[i:]))
			continue
		}
		w := atomic.LoadUint64(&d.words[idx])
		binary.LittleEndian.PutUint64(buf[:], w)
		copy(buf[:], src[i:])
		atomic.StoreUint64(&d.words[idx], binary.LittleEndian.Uint64(buf[:]))
	}
	d.Stats.stripe(off).writes.Add(uint64((len(src) + 7) / 8))
}

// Zero clears n bytes starting at off (both 8-byte aligned).
func (d *Device) Zero(off, n uint64) {
	d.checkRange(off, n)
	d.crashPoint(EvStore)
	d.strictStore(off, n)
	for i := uint64(0); i < n; i += 8 {
		atomic.StoreUint64(&d.words[(off+i)/8], 0)
	}
	d.Stats.stripe(off).writes.Add(n / 8)
}

// Flush writes back (clwb) every cache line overlapping [off, off+n) to the
// durable media view. On a volatile device it only updates statistics. The
// cost model charges one 256-byte block write per block per flush epoch
// (write combining, C3) and a smaller marginal cost for further lines
// within an already-charged block.
func (d *Device) Flush(off, n uint64) {
	if n == 0 {
		return
	}
	d.checkRange(off, n)
	d.strictFlush(off, n)
	first := off / LineSize
	last := (off + n - 1) / LineSize
	d.Stats.stripe(off).lineFlushes.Add(last - first + 1)
	for line := first; line <= last; line++ {
		if d.media != nil {
			d.flushLine(line)
		}
		if d.hasLatency {
			d.chargeFlush(line)
		}
	}
}

// flushLine writes one cache line back to media. The crash hook runs
// before the lock is taken (an injected panic must not leak a held lock)
// and before any word of the line reaches media, so crash point k sees
// lines 1..k-1 durable and line k not at all — never a torn line.
func (d *Device) flushLine(line uint64) {
	d.crashPoint(EvFlush)
	d.mediaMu.RLock()
	defer d.mediaMu.RUnlock()
	if d.mediaFrozen() {
		return
	}
	base := line * wordsPerLine
	for w := uint64(0); w < wordsPerLine; w++ {
		atomic.StoreUint64(&d.media[base+w], atomic.LoadUint64(&d.words[base+w]))
	}
}

func (d *Device) chargeFlush(line uint64) {
	block := line * LineSize / BlockSize
	d.epochMu.Lock()
	charged := d.epoch.charge(block)
	d.epochMu.Unlock()
	if charged {
		spinWait(d.prof.FlushLine)
	} else {
		d.Stats.BlockWrites.Add(1)
		spinWait(d.prof.WriteBlock)
	}
}

// Drain is the sfence equivalent: it ends the current write-combining
// epoch and charges the barrier cost. In this simulation flushed lines are
// already durable, so Drain affects only the cost model; ordering-related
// bugs surface through the crash tests of package pmemobj instead.
func (d *Device) Drain() {
	d.crashPoint(EvDrain)
	d.Stats.Drains.Add(1)
	d.strictDrain()
	if d.hasLatency {
		d.epochMu.Lock()
		d.epoch.end()
		d.epochMu.Unlock()
		spinWait(d.prof.Drain)
	}
}

// Persist is the common flush-then-drain sequence.
func (d *Device) Persist(off, n uint64) {
	d.Flush(off, n)
	d.Drain()
}

// Crash simulates a power failure: the CPU view is replaced by the media
// view and the simulated CPU cache is invalidated. Unflushed stores are
// lost. On a volatile device the entire contents are zeroed. Crash holds
// the media lock exclusively for the whole discard, so it is safe against
// concurrent flushers: the restored image never mixes a half-copied line.
// Crash also disarms any crash controller; call DisarmCrash first if the
// event count is needed.
func (d *Device) Crash() {
	d.Stats.Crashes.Add(1)
	d.crashctl.Store(nil)
	d.strictReset()
	d.mediaMu.Lock()
	if d.media == nil {
		for i := range d.words {
			atomic.StoreUint64(&d.words[i], 0)
		}
	} else {
		for i := range d.words {
			atomic.StoreUint64(&d.words[i], atomic.LoadUint64(&d.media[i]))
		}
	}
	d.mediaMu.Unlock()
	if d.cache != nil {
		d.cache.invalidateAll()
	}
	d.epochMu.Lock()
	d.epoch.end()
	d.epochMu.Unlock()
}

// DropCache invalidates the simulated CPU cache without touching data,
// turning the next accesses into cold misses (used by cold-run
// benchmarks).
func (d *Device) DropCache() {
	if d.cache != nil {
		d.cache.invalidateAll()
	}
}

// deviceMagic guards Save/Load framing.
const deviceMagic = 0x504d454d44455631 // "PMEMDEV1"

// Save serializes the durable media view (or the CPU view of a volatile
// device) to w. Together with Load this lets examples persist a pool
// across process runs, standing in for a DAX-mounted file.
func (d *Device) Save(w io.Writer) error {
	src := d.media
	if src == nil {
		src = d.words
	}
	// Trim trailing zero words: pool images are typically sparse, and a
	// fresh device (and its media view) is zero anyway, so Load restores
	// the identical state from the truncated image.
	used := len(src)
	for used > 0 && atomic.LoadUint64(&src[used-1]) == 0 {
		used--
	}
	src = src[:used]
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], deviceMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(src)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pmem: save header: %w", err)
	}
	buf := make([]byte, 64*1024)
	for i := 0; i < len(src); {
		n := 0
		for n+8 <= len(buf) && i < len(src) {
			binary.LittleEndian.PutUint64(buf[n:], atomic.LoadUint64(&src[i]))
			n += 8
			i++
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return fmt.Errorf("pmem: save body: %w", err)
		}
	}
	return nil
}

// Load restores both views from a stream produced by Save. The stored size
// must not exceed the device capacity. Words beyond the stored image are
// zeroed in both views, so loading a (shorter) image into a used device
// yields the same state as loading it into a fresh one — crash-exploration
// drivers rely on this to reuse a single device across iterations. Like
// Crash, Load holds the media lock exclusively for the whole restore.
func (d *Device) Load(r io.Reader) error {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("pmem: load header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != deviceMagic {
		return fmt.Errorf("pmem: load: bad magic")
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n > uint64(len(d.words)) {
		return fmt.Errorf("pmem: load: stored size %d words exceeds device capacity %d", n, len(d.words))
	}
	d.mediaMu.Lock()
	defer d.mediaMu.Unlock()
	buf := make([]byte, 64*1024)
	i := uint64(0)
	for i < n {
		want := uint64(len(buf))
		if rem := (n - i) * 8; rem < want {
			want = rem
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return fmt.Errorf("pmem: load body: %w", err)
		}
		for j := uint64(0); j < want; j += 8 {
			v := binary.LittleEndian.Uint64(buf[j:])
			atomic.StoreUint64(&d.words[i], v)
			if d.media != nil {
				atomic.StoreUint64(&d.media[i], v)
			}
			i++
		}
	}
	for ; i < uint64(len(d.words)); i++ {
		atomic.StoreUint64(&d.words[i], 0)
		if d.media != nil {
			atomic.StoreUint64(&d.media[i], 0)
		}
	}
	if d.cache != nil {
		d.cache.invalidateAll()
	}
	d.strictReset()
	return nil
}
