package pmem

import "sync/atomic"

const (
	// statStripeBits is log2 of the number of per-access counter stripes.
	statStripeBits = 6
	statStripes    = 1 << statStripeBits
	// statStripeShift is log2 of the region that maps to one stripe. At
	// 4 KiB a sequential reader writes one stripe for 64 lines in a row
	// instead of cycling through all of them line by line, while two
	// readers inside one 64 KiB storage chunk are still spread apart.
	statStripeShift = 12
)

// statStripe holds the per-access counters of one address stripe, padded
// to two cache lines so that neighbouring stripes never share one
// whatever the alignment of the enclosing allocation.
type statStripe struct {
	reads       atomic.Uint64
	writes      atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	lineFlushes atomic.Uint64
	_           [2*LineSize - 5*8]byte
}

// Stats holds access counters for a Device. All counters are updated
// atomically. The per-access counters are striped by the accessed address
// so that concurrent accessors of different regions never write the same
// cache line; read the totals with Snapshot, which sums the stripes (a
// consistent-enough view, not an atomic cut across counters).
type Stats struct {
	stripes [statStripes]statStripe

	BlockWrites atomic.Uint64 // 256-byte internal block writes (C3)
	Drains      atomic.Uint64 // sfence-equivalent barriers
	Crashes     atomic.Uint64 // simulated power failures
}

// stripe returns the counters charged for an access at byte offset off.
// Regions are spread over the stripes by Fibonacci hashing, so readers
// that advance in lockstep a power-of-two distance apart do not keep
// landing on one stripe together.
func (s *Stats) stripe(off uint64) *statStripe {
	return &s.stripes[(off>>statStripeShift)*0x9E3779B97F4A7C15>>(64-statStripeBits)]
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Reads       uint64 // 8-byte loads
	Writes      uint64 // 8-byte stores
	CacheHits   uint64 // loads served by the simulated CPU cache
	CacheMisses uint64 // loads that paid the device read latency
	LineFlushes uint64 // clwb-equivalent cache line flushes
	BlockWrites uint64
	Drains      uint64
	Crashes     uint64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	out := StatsSnapshot{
		BlockWrites: s.BlockWrites.Load(),
		Drains:      s.Drains.Load(),
		Crashes:     s.Crashes.Load(),
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		out.Reads += st.reads.Load()
		out.Writes += st.writes.Load()
		out.CacheHits += st.cacheHits.Load()
		out.CacheMisses += st.cacheMisses.Load()
		out.LineFlushes += st.lineFlushes.Load()
	}
	return out
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.reads.Store(0)
		st.writes.Store(0)
		st.cacheHits.Store(0)
		st.cacheMisses.Store(0)
		st.lineFlushes.Store(0)
	}
	s.BlockWrites.Store(0)
	s.Drains.Store(0)
	s.Crashes.Store(0)
}

// Sub returns the delta s - o, counter-wise. Useful for per-experiment
// accounting.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Reads:       s.Reads - o.Reads,
		Writes:      s.Writes - o.Writes,
		CacheHits:   s.CacheHits - o.CacheHits,
		CacheMisses: s.CacheMisses - o.CacheMisses,
		LineFlushes: s.LineFlushes - o.LineFlushes,
		BlockWrites: s.BlockWrites - o.BlockWrites,
		Drains:      s.Drains - o.Drains,
		Crashes:     s.Crashes - o.Crashes,
	}
}
