package pmemobj

import (
	"fmt"
	"slices"
	"sort"
)

// Undo-log transactions (the libpmemobj model the paper uses for commit,
// §5.1). The protocol is:
//
//  1. Snapshot(off, len) copies the current contents of the range into the
//     persistent undo log and makes the log entry durable *before* the
//     caller modifies the range.
//  2. The caller mutates the snapshotted ranges through the device.
//  3. Commit flushes all modified ranges, then invalidates the log with a
//     single 8-byte durable store of the entry count (C4: the commit point
//     is one failure-atomic write).
//
// If the process crashes between 1 and 3, Open finds a non-empty log and
// rolls the ranges back to their snapshotted contents. Abort performs the
// same rollback online.

// Log region layout: word 0 holds the entry count (0 = log invalid/empty);
// entries start at logOff+64. Each entry is [off u64][len u64][old data,
// padded to 8 bytes].
const logDataStart = 64

// Tx is an in-flight failure-atomic transaction. A Tx is only valid inside
// the RunTx callback that created it and must not be used concurrently.
type Tx struct {
	p      *Pool
	logOff uint64 // base of the undo log this transaction writes
	logCap uint64
	laned  bool       // true for lane transactions (no allocator access)
	logEnd uint64     // next free byte in the log region (volatile)
	count  uint64     // entries appended so far (volatile mirror)
	s      *txScratch // borrowed from the log; a Tx built without one makes its own
}

type txRange struct{ off, n uint64 }

// txScratch is a transaction's volatile bookkeeping. It belongs to the log
// the transaction runs on (Pool for the built-in log, poolLane for a lane)
// and is reused under the mutex that serializes that log's transactions;
// newTx empties it, so nothing of a transaction that failed, panicked or
// was abandoned reaches the next one.
type txScratch struct {
	// touched is every snapshotted or note-written range in call order,
	// the order commit flushes in (crash schedule IDs depend on it).
	touched []txRange
	// maximal is the coverage index: the touched ranges no other touched
	// range contains, sorted by offset. No two of them nest, so they are
	// sorted by end as well, and the last one starting at or before an
	// offset is the only one that can cover a range starting there.
	maximal []txRange
	keep    []txRange // SnapshotAll's surviving batch
	words   []uint64  // snapshot copy buffer
}

func (p *Pool) newTx(s *txScratch, logOff, logCap uint64, laned bool) *Tx {
	s.touched, s.maximal = s.touched[:0], s.maximal[:0]
	return &Tx{p: p, s: s, logOff: logOff, logCap: logCap, laned: laned, logEnd: logOff + logDataStart}
}

func (tx *Tx) scratch() *txScratch {
	if tx.s == nil {
		tx.s = new(txScratch)
	}
	return tx.s
}

// RunTx executes fn inside a transaction on the pool's built-in undo log.
// If fn returns nil the transaction commits; any error (or panic) rolls
// back every snapshotted range. Transactions serialize on the pool:
// nesting RunTx on the same pool deadlocks by design, matching
// libpmemobj's one-transaction-per-thread rule.
func (p *Pool) RunTx(fn func(*Tx) error) (err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.newTx(&p.scratch, p.logOff, p.logCap, false).run(fn)
}

// RunTxLane executes fn inside a transaction on an attached undo-log lane
// (see AttachLane). Lane 0 is the pool's built-in log and behaves exactly
// like RunTx. Lanes have independent mutexes, so transactions on
// different lanes run concurrently; the caller must guarantee that ranges
// touched by concurrent lane transactions never overlap (the engine does
// this by mapping every persistent range to one shard and requiring the
// shard's commit lock for the lane transaction that touches it).
// Otherwise crash rollback, which replays lane logs in arbitrary lane
// order, could resurrect overwritten data.
//
// Lane transactions cannot allocate or free blocks: the allocator's
// metadata is global and protected by the pool's built-in log only.
func (p *Pool) RunTxLane(lane int, fn func(*Tx) error) error {
	if lane == 0 {
		return p.RunTx(fn)
	}
	l := p.lane(lane)
	if l == nil {
		return fmt.Errorf("pmemobj: no attached lane %d", lane)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return p.newTx(&l.scratch, l.off, l.cap, true).run(fn)
}

func (tx *Tx) run(fn func(*Tx) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			tx.rollback()
			panic(r)
		}
	}()
	if err = fn(tx); err != nil {
		tx.rollback()
		return err
	}
	tx.commit()
	return nil
}

// Begin starts an explicit transaction, taking the pool's transaction
// lock. Most callers should use RunTx; Begin exists for bulk-load paths
// and for crash-injection tests that abandon a transaction mid-flight.
// Every Begin must be paired with exactly one Commit or Abandon.
func (p *Pool) Begin() *Tx {
	p.mu.Lock()
	return p.newTx(&p.scratch, p.logOff, p.logCap, false)
}

// Commit flushes the transaction's ranges, invalidates the undo log and
// releases the pool lock. Only valid on transactions from Begin.
func (tx *Tx) Commit() {
	tx.commit()
	tx.p.mu.Unlock()
}

// Abandon releases the pool lock without committing or rolling back,
// leaving the undo log populated — exactly the persistent state a crash
// would leave behind. The next Open rolls the transaction back. Only
// valid on transactions from Begin.
func (tx *Tx) Abandon() {
	tx.p.mu.Unlock()
}

// covered reports whether [off, off+n) lies entirely inside one range
// this transaction has already snapshotted or note-written. Re-logging a
// covered range is pure overhead: rollback restores entries in reverse
// order, so the oldest snapshot of a range wins regardless.
func (tx *Tx) covered(off, n uint64) bool {
	s := tx.scratch()
	i := s.upTo(off)
	return i > 0 && off+n <= s.maximal[i-1].off+s.maximal[i-1].n
}

// upTo returns how many maximal ranges start at or before off.
func (s *txScratch) upTo(off uint64) int {
	return sort.Search(len(s.maximal), func(i int) bool { return s.maximal[i].off > off })
}

// touch appends [off, off+n) to touched and, unless a maximal range
// already contains it, makes it one in place of the neighbours it contains.
func (tx *Tx) touch(off, n uint64) {
	s := tx.scratch()
	s.touched = append(s.touched, txRange{off, n})
	if tx.covered(off, n) {
		return
	}
	i := s.upTo(off)
	if i > 0 && s.maximal[i-1].off == off {
		i--
	}
	j := i
	for j < len(s.maximal) && s.maximal[j].off+s.maximal[j].n <= off+n {
		j++
	}
	s.maximal = slices.Replace(s.maximal, i, j, txRange{off, n})
}

// SnapshotCost returns the number of undo-log bytes a Snapshot of an
// n-byte range consumes: the 16-byte entry header plus the old image
// padded to 8 bytes. Group-commit leaders use it to size epochs against
// LaneCap before entering the lane transaction.
func SnapshotCost(n uint64) uint64 { return 16 + align(n, 8) }

// LogHeaderBytes is the fixed per-log header (the cache line holding the
// entry-count word); usable snapshot space is the log capacity minus
// this.
const LogHeaderBytes = logDataStart

// Snapshot records the current contents of [off, off+n) in the undo log so
// the range can be modified failure-atomically. It must be called before
// the first modification of the range within the transaction. A range
// already covered by an earlier Snapshot or NoteWrite of this
// transaction is skipped without touching the log.
func (tx *Tx) Snapshot(off, n uint64) error {
	if n == 0 {
		return nil
	}
	if off%8 != 0 {
		panic("pmemobj: Snapshot offset must be 8-byte aligned")
	}
	if tx.covered(off, n) {
		return nil
	}
	need := SnapshotCost(n)
	if tx.logEnd+need > tx.logOff+tx.logCap {
		return fmt.Errorf("%w: need %d bytes", ErrLogFull, need)
	}
	dev := tx.p.dev
	entry := tx.logEnd
	tx.appendEntry(off, n)
	dev.Flush(entry, need)
	// The entry becomes valid only once the count is bumped durably.
	tx.count++
	dev.WriteU64(tx.logOff, tx.count)
	dev.Persist(tx.logOff, 8)
	tx.touch(off, n)
	// The range is now recoverable even while its stores sit unflushed
	// in the CPU cache; tell the strict flush checker (no-op otherwise).
	dev.NoteUndoCovered(off, n)
	return nil
}

// appendEntry writes the undo entry for [off, off+n) at logEnd and
// advances logEnd past it; the caller flushes, counts and publishes it.
// The old image is read word by word: ReadWords charges cache lines
// relative to the range start, which would change the hit/miss counts.
func (tx *Tx) appendEntry(off, n uint64) {
	dev := tx.p.dev
	dev.WriteU64(tx.logEnd, off)
	dev.WriteU64(tx.logEnd+8, n)
	s, k := tx.scratch(), align(n, 8)/8
	s.words = slices.Grow(s.words[:0], int(k))[:k]
	for i := range s.words {
		s.words[i] = dev.ReadU64(off + uint64(i)*8)
	}
	dev.WriteWords(tx.logEnd+16, s.words)
	tx.logEnd += SnapshotCost(n)
}

// Range identifies a device range for batched snapshotting.
type Range struct{ Off, N uint64 }

// SnapshotAll records every listed range in the undo log with a single
// durable publication of the entry count — one fence for the whole
// batch instead of one per range. This is the group-commit leader's
// batched append: K member transactions' undo images become valid
// together at one fence. Ranges already covered by this transaction (or
// by an earlier range in the same call) are skipped. If the surviving
// batch does not fit the remaining log space, nothing is appended and
// ErrLogFull is returned, so the caller can split the epoch and retry.
func (tx *Tx) SnapshotAll(ranges []Range) error {
	s := tx.scratch()
	keep := s.keep[:0]
	need := uint64(0)
	for _, r := range ranges {
		if r.N == 0 {
			continue
		}
		if r.Off%8 != 0 {
			panic("pmemobj: SnapshotAll offset must be 8-byte aligned")
		}
		if tx.covered(r.Off, r.N) {
			continue
		}
		dup := false
		for _, k := range keep {
			if r.Off >= k.off && r.Off+r.N <= k.off+k.n {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		keep = append(keep, txRange{r.Off, r.N})
		need += SnapshotCost(r.N)
	}
	s.keep = keep
	if len(keep) == 0 {
		return nil
	}
	if tx.logEnd+need > tx.logOff+tx.logCap {
		return fmt.Errorf("%w: need %d bytes for %d ranges", ErrLogFull, need, len(keep))
	}
	dev := tx.p.dev
	start := tx.logEnd
	for _, k := range keep {
		tx.appendEntry(k.off, k.n)
		tx.count++
	}
	dev.Flush(start, tx.logEnd-start)
	// One durable count store validates every appended entry at once:
	// the group fence.
	dev.WriteU64(tx.logOff, tx.count)
	if !mutateGroupFence() {
		// crashmutate groupfence builds skip the publication fence; the
		// count word then never reaches media and rollback misses the
		// whole batch.
		dev.Persist(tx.logOff, 8)
	}
	for _, k := range keep {
		tx.touch(k.off, k.n)
		dev.NoteUndoCovered(k.off, k.n)
	}
	return nil
}

// NoteWrite registers a range to be flushed at commit without
// snapshotting it first. This is only safe for memory whose pre-transaction
// contents are unreachable — typically memory allocated within the same
// transaction, which the allocator rolls back wholesale on abort.
func (tx *Tx) NoteWrite(off, n uint64) {
	tx.touch(off, n)
	tx.p.dev.NoteUndoCovered(off, n)
}

func (tx *Tx) noteWrite(off, n uint64) { tx.NoteWrite(off, n) }

func (tx *Tx) commit() {
	dev := tx.p.dev
	touched := tx.scratch().touched
	for i, r := range touched {
		if mutateSkipFlush() && i == len(touched)-1 {
			// crashmutate builds omit the last range's flush; the
			// commit record below then lies about durability.
			continue
		}
		dev.Flush(r.off, r.n)
	}
	dev.Drain()
	// Single 8-byte store is the commit point (DG4).
	dev.WriteU64(tx.logOff, 0)
	dev.Persist(tx.logOff, 8)
}

func (tx *Tx) rollback() {
	tx.p.applyUndoAt(tx.logOff, tx.count)
}

// applyUndoAt restores count undo entries of the log at logOff in reverse
// order and invalidates the log. Used by online aborts and by crash
// recovery (of the built-in log and of attached lanes).
func (p *Pool) applyUndoAt(logOff, count uint64) {
	dev := p.dev
	if count == 0 {
		dev.WriteU64(logOff, 0)
		dev.Persist(logOff, 8)
		return
	}
	// Walk forward to locate the entries, then restore in reverse so the
	// oldest snapshot of an overlapping range wins.
	type loc struct{ entry, off, n uint64 }
	locs := make([]loc, 0, count)
	pos := logOff + logDataStart
	for i := uint64(0); i < count; i++ {
		off := dev.ReadU64(pos)
		n := dev.ReadU64(pos + 8)
		locs = append(locs, loc{pos, off, n})
		pos += 16 + align(n, 8)
	}
	for i := len(locs) - 1; i >= 0; i-- {
		l := locs[i]
		words := align(l.n, 8) / 8
		for w := uint64(0); w < words; w++ {
			dev.WriteU64(l.off+w*8, dev.ReadU64(l.entry+16+w*8))
		}
		dev.Flush(l.off, l.n)
	}
	dev.Drain()
	dev.WriteU64(logOff, 0)
	dev.Persist(logOff, 8)
}

// recover rolls back an in-flight transaction found after a crash.
func (p *Pool) recover() error {
	count := p.dev.ReadU64(p.logOff)
	if count == 0 {
		return nil
	}
	p.applyUndoAt(p.logOff, count)
	return nil
}
