package pmem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadWriteU64(t *testing.T) {
	d := NewDRAM(1024)
	d.WriteU64(0, 42)
	d.WriteU64(1016, ^uint64(0))
	if got := d.ReadU64(0); got != 42 {
		t.Errorf("ReadU64(0) = %d, want 42", got)
	}
	if got := d.ReadU64(1016); got != ^uint64(0) {
		t.Errorf("ReadU64(1016) = %d, want max", got)
	}
	if got := d.ReadU64(8); got != 0 {
		t.Errorf("untouched word = %d, want 0", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDRAM(64)
	cases := []func(){
		func() { d.ReadU64(64) },
		func() { d.WriteU64(64, 1) },
		func() { d.ReadU64(^uint64(0) - 3) }, // overflow wrap
		func() { d.Flush(0, 128) },
		func() { d.ReadBytes(0, make([]byte, 65)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestU32Halves(t *testing.T) {
	d := NewDRAM(64)
	d.WriteU32(0, 0x11223344)
	d.WriteU32(4, 0xAABBCCDD)
	if got := d.ReadU32(0); got != 0x11223344 {
		t.Errorf("low half = %#x", got)
	}
	if got := d.ReadU32(4); got != 0xAABBCCDD {
		t.Errorf("high half = %#x", got)
	}
	if got := d.ReadU64(0); got != 0xAABBCCDD11223344 {
		t.Errorf("whole word = %#x", got)
	}
	// Overwriting one half must not disturb the other.
	d.WriteU32(0, 7)
	if got := d.ReadU32(4); got != 0xAABBCCDD {
		t.Errorf("high half after low write = %#x", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	d := NewDRAM(256)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 100} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i*7 + n)
		}
		d.WriteBytes(64, src)
		dst := make([]byte, n)
		d.ReadBytes(64, dst)
		if !bytes.Equal(src, dst) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestWriteBytesPreservesTail(t *testing.T) {
	d := NewDRAM(64)
	d.WriteU64(0, 0xFFFFFFFFFFFFFFFF)
	d.WriteBytes(0, []byte{1, 2, 3}) // partial word write
	got := make([]byte, 8)
	d.ReadBytes(0, got)
	want := []byte{1, 2, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestCrashLosesUnflushedStores(t *testing.T) {
	d := New(Config{Name: "p", Size: 1024, Persistent: true})
	d.WriteU64(0, 1)
	d.WriteU64(512, 2)
	d.Persist(0, 8) // only the first store is made durable
	d.Crash()
	if got := d.ReadU64(0); got != 1 {
		t.Errorf("flushed store lost: got %d", got)
	}
	if got := d.ReadU64(512); got != 0 {
		t.Errorf("unflushed store survived crash: got %d", got)
	}
}

func TestCrashVolatileDeviceLosesEverything(t *testing.T) {
	d := NewDRAM(128)
	d.WriteU64(0, 99)
	d.Flush(0, 8) // no-op persistence on DRAM
	d.Crash()
	if got := d.ReadU64(0); got != 0 {
		t.Errorf("volatile device retained %d after crash", got)
	}
}

func TestFlushGranularityIsCacheLine(t *testing.T) {
	d := New(Config{Name: "p", Size: 256, Persistent: true})
	d.WriteU64(0, 10)
	d.WriteU64(56, 11) // same line as offset 0
	d.WriteU64(64, 12) // next line
	d.Persist(8, 8)    // flushing any byte of line 0 persists the whole line
	d.Crash()
	if d.ReadU64(0) != 10 || d.ReadU64(56) != 11 {
		t.Error("stores within the flushed line were lost")
	}
	if d.ReadU64(64) != 0 {
		t.Error("store in unflushed line survived")
	}
}

func TestCompareAndSwap(t *testing.T) {
	d := NewDRAM(64)
	d.WriteU64(0, 5)
	if !d.CompareAndSwapU64(0, 5, 6) {
		t.Fatal("CaS with matching old value failed")
	}
	if d.CompareAndSwapU64(0, 5, 7) {
		t.Fatal("CaS with stale old value succeeded")
	}
	if got := d.ReadU64(0); got != 6 {
		t.Errorf("value = %d, want 6", got)
	}
}

func TestConcurrentCASLocking(t *testing.T) {
	// Many goroutines competing for a CaS-based lock; exactly one must win
	// each round. This mirrors the MVTO txn-id write lock.
	d := NewDRAM(64)
	const rounds, workers = 100, 8
	for r := 0; r < rounds; r++ {
		var winners int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				if d.CompareAndSwapU64(0, 0, id+1) {
					mu.Lock()
					winners++
					mu.Unlock()
				}
			}(uint64(w))
		}
		wg.Wait()
		if winners != 1 {
			t.Fatalf("round %d: %d winners, want 1", r, winners)
		}
		d.WriteU64(0, 0) // unlock
	}
}

func TestStatsCounting(t *testing.T) {
	d := New(Config{Name: "p", Size: 1024, Persistent: true})
	before := d.Stats.Snapshot()
	d.WriteU64(0, 1)
	d.ReadU64(0)
	d.Flush(0, 8)
	d.Drain()
	delta := d.Stats.Snapshot().Sub(before)
	if delta.Writes != 1 || delta.Reads != 1 || delta.LineFlushes != 1 || delta.Drains != 1 {
		t.Errorf("unexpected stats delta: %+v", delta)
	}
}

// The per-access counters are striped by address; whatever the
// interleaving, the sum over the stripes must be exact.
func TestStatsStripedExact(t *testing.T) {
	const (
		workers = 8
		// 128 KiB per worker is 32 stripe regions, so the workers' 256
		// regions share the 64 stripes and their adds do contend.
		lines = 2048
		// One block of slack: the last ReadWords spills into the next
		// line, and block-aligned bases keep the BlockWrites count exact.
		stride = lines*LineSize + BlockSize
	)
	d := New(Config{
		Name:       "p",
		Size:       workers * stride,
		Persistent: true,
		Profile:    Profile{ReadMiss: 1}, // nonzero so probes are charged
		CacheBytes: 64 * 1024,
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			var buf [12]uint64 // spans two lines: two probes
			for l := uint64(0); l < lines; l++ {
				off := base + l*LineSize
				d.ReadU64(off)
				d.ReadWords(off, buf[:])
				d.WriteU64(off+8, l)
				if l%4 == 0 {
					d.Flush(off, LineSize)
				}
			}
		}(uint64(w) * stride)
	}
	wg.Wait()
	s := d.Stats.Snapshot()
	want := StatsSnapshot{
		Reads:       workers * lines * (1 + 12),
		Writes:      workers * lines,
		LineFlushes: workers * lines / 4,
		BlockWrites: workers * lines / 4, // one line per 256-byte block
	}
	if probes := uint64(workers * lines * 3); s.CacheHits+s.CacheMisses != probes {
		t.Errorf("hits %d + misses %d = %d, want %d charged probes",
			s.CacheHits, s.CacheMisses, s.CacheHits+s.CacheMisses, probes)
	}
	s.CacheHits, s.CacheMisses = 0, 0
	if s != want {
		t.Errorf("snapshot = %+v, want %+v", s, want)
	}
	d.Stats.Reset()
	// Unsigned sums: a zero snapshot means every stripe is zero.
	if s := d.Stats.Snapshot(); s != (StatsSnapshot{}) {
		t.Errorf("snapshot after Reset = %+v, want zero", s)
	}
}

func TestWriteCombiningChargesPerBlock(t *testing.T) {
	d := New(Config{
		Name:       "p",
		Size:       1024,
		Persistent: true,
		Profile:    Profile{WriteBlock: 1}, // nonzero to enable accounting
	})
	// Four lines in one 256-byte block: one block write.
	d.Flush(0, 256)
	if got := d.Stats.Snapshot().BlockWrites; got != 1 {
		t.Errorf("flushing one block charged %d block writes, want 1", got)
	}
	d.Drain()
	// Two lines in different blocks: two block writes.
	d.Flush(0, 8)
	d.Flush(256, 8)
	if got := d.Stats.Snapshot().BlockWrites; got != 3 {
		t.Errorf("total block writes = %d, want 3", got)
	}
	// A barrier ends the epoch: the same block is charged again after a
	// Drain, and again after a Crash, but not twice in between.
	for i, barrier := range []func(){d.Drain, d.Crash} {
		barrier()
		d.Flush(256, 8)
		d.Flush(256+LineSize, 8)
		if got, want := d.Stats.Snapshot().BlockWrites, uint64(4+i); got != want {
			t.Errorf("total block writes after barrier %d = %d, want %d", i, got, want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := New(Config{Name: "p", Size: 512, Persistent: true})
	for i := uint64(0); i < 64; i++ {
		d.WriteU64(i*8, i*i+1)
	}
	d.Persist(0, 512)
	d.WriteU64(0, 12345) // durable view keeps the old value

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New(Config{Name: "p2", Size: 512, Persistent: true})
	if err := d2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if got := d2.ReadU64(i * 8); got != i*i+1 {
			t.Fatalf("word %d = %d, want %d", i, got, i*i+1)
		}
	}
}

func TestLoadRejectsOversizedImage(t *testing.T) {
	d := New(Config{Name: "p", Size: 1024, Persistent: true})
	d.WriteU64(512, 7) // beyond the small device's capacity
	d.Persist(512, 8)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	small := New(Config{Name: "s", Size: 64, Persistent: true})
	if err := small.Load(&buf); err == nil {
		t.Fatal("expected error loading oversized image")
	}
}

func TestSaveTrimsZeroTail(t *testing.T) {
	d := New(Config{Name: "p", Size: 1 << 20, Persistent: true})
	d.WriteU64(128, 42)
	d.Persist(128, 8)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1024 {
		t.Errorf("sparse image is %d bytes; trailing zeros not trimmed", buf.Len())
	}
	d2 := New(Config{Name: "p2", Size: 1 << 20, Persistent: true})
	if err := d2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.ReadU64(128) != 42 {
		t.Error("trimmed image lost data")
	}
	if d2.ReadU64(1<<19) != 0 {
		t.Error("beyond-image region not zero")
	}
}

func TestPersistedDataSurvivesAnyCrashProperty(t *testing.T) {
	// Property: any word that was written and persisted before a crash is
	// readable with the same value after the crash.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{Name: "p", Size: 4096, Persistent: true})
		persisted := map[uint64]uint64{}
		for i := 0; i < 50; i++ {
			off := uint64(rng.Intn(512)) * 8
			val := rng.Uint64()
			d.WriteU64(off, val)
			if rng.Intn(2) == 0 {
				d.Persist(off, 8)
				persisted[off] = val
				// Persisting a line may also persist neighbours written
				// earlier; drop any stale expectations for that line.
				line := off / LineSize
				for o := range persisted {
					if o/LineSize == line && o != off {
						delete(persisted, o)
					}
				}
			}
		}
		d.Crash()
		for off, val := range persisted {
			if d.ReadU64(off) != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCacheHitsOnHotData(t *testing.T) {
	d := New(Config{
		Name:       "p",
		Size:       8192,
		Persistent: true,
		Profile:    Profile{ReadMiss: 1},
		CacheBytes: 64 * 1024,
	})
	d.ReadU64(0) // cold
	d.ReadU64(0) // hot
	d.ReadU64(8) // same line, hot
	s := d.Stats.Snapshot()
	if s.CacheMisses != 1 {
		t.Errorf("misses = %d, want 1", s.CacheMisses)
	}
	if s.CacheHits != 2 {
		t.Errorf("hits = %d, want 2", s.CacheHits)
	}
}

func TestCrashInvalidatesCache(t *testing.T) {
	d := New(Config{
		Name:       "p",
		Size:       8192,
		Persistent: true,
		Profile:    Profile{ReadMiss: 1},
		CacheBytes: 64 * 1024,
	})
	d.ReadU64(0)
	d.Crash()
	d.ReadU64(0)
	if got := d.Stats.Snapshot().CacheMisses; got != 2 {
		t.Errorf("misses after crash = %d, want 2 (cache must be cold)", got)
	}
}
