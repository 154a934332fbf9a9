package dict

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
)

func newTestDict(t *testing.T, size int) (*Dict, *pmem.Device) {
	t.Helper()
	dev := pmem.New(pmem.Config{Name: "dict", Size: size, Persistent: true})
	pool, err := pmemobj.Create(dev, pmemobj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	d, err := Create(pool)
	if err != nil {
		t.Fatal(err)
	}
	return d, dev
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d, _ := newTestDict(t, 8<<20)
	words := []string{"Person", "knows", "likes", "", "a", "comment", "Straße", "名前"}
	codes := make(map[string]uint64)
	for _, w := range words {
		c, err := d.Encode(w)
		if err != nil {
			t.Fatalf("Encode(%q): %v", w, err)
		}
		if c == 0 {
			t.Fatalf("Encode(%q) returned reserved code 0", w)
		}
		codes[w] = c
	}
	for _, w := range words {
		got, err := d.Decode(codes[w])
		if err != nil {
			t.Fatalf("Decode(%d): %v", codes[w], err)
		}
		if got != w {
			t.Errorf("Decode(Encode(%q)) = %q", w, got)
		}
	}
}

func TestEncodeIsIdempotent(t *testing.T) {
	d, _ := newTestDict(t, 8<<20)
	a, _ := d.Encode("hello")
	b, _ := d.Encode("hello")
	if a != b {
		t.Errorf("codes differ: %d vs %d", a, b)
	}
	if d.Count() != 1 {
		t.Errorf("count = %d, want 1", d.Count())
	}
}

func TestLookupDoesNotInsert(t *testing.T) {
	d, _ := newTestDict(t, 8<<20)
	if _, ok := d.Lookup("ghost"); ok {
		t.Error("Lookup found a string never inserted")
	}
	if d.Count() != 0 {
		t.Errorf("count = %d after failed lookup, want 0", d.Count())
	}
	c, _ := d.Encode("real")
	got, ok := d.Lookup("real")
	if !ok || got != c {
		t.Errorf("Lookup = (%d,%v), want (%d,true)", got, ok, c)
	}
}

func TestDecodeUnknownCode(t *testing.T) {
	d, _ := newTestDict(t, 8<<20)
	d.Encode("x")
	for _, code := range []uint64{0, 2, 999} {
		if _, err := d.Decode(code); !errors.Is(err, ErrUnknownCode) {
			t.Errorf("Decode(%d) err = %v, want ErrUnknownCode", code, err)
		}
	}
}

func TestGrowRehashPreservesAllCodes(t *testing.T) {
	d, _ := newTestDict(t, 64<<20)
	const n = 5000 // forces several rehashes past the initial 1024 buckets
	codes := make([]uint64, n)
	for i := 0; i < n; i++ {
		c, err := d.Encode(fmt.Sprintf("string-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		codes[i] = c
	}
	if d.Count() != n {
		t.Fatalf("count = %d, want %d", d.Count(), n)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("string-%d", i)
		if got, err := d.Decode(codes[i]); err != nil || got != want {
			t.Fatalf("Decode(%d) = %q,%v want %q", codes[i], got, err, want)
		}
		if got, ok := d.Lookup(want); !ok || got != codes[i] {
			t.Fatalf("Lookup(%q) = %d,%v want %d", want, got, ok, codes[i])
		}
	}
}

func TestDictSurvivesCleanCrash(t *testing.T) {
	dev := pmem.New(pmem.Config{Name: "dict", Size: 16 << 20, Persistent: true})
	pool, _ := pmemobj.Create(dev, pmemobj.Options{})
	d, _ := Create(pool)
	pool.SetRoot(d.Offset())
	want := map[string]uint64{}
	for i := 0; i < 200; i++ {
		s := fmt.Sprintf("label-%d", i)
		c, err := d.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = c
	}
	pool.Close()
	dev.Crash()

	pool2, err := pmemobj.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	d2 := Open(pool2, pool2.Root())
	for s, c := range want {
		got, ok := d2.Lookup(s)
		if !ok || got != c {
			t.Fatalf("after crash: Lookup(%q) = %d,%v want %d", s, got, ok, c)
		}
		if str, err := d2.Decode(c); err != nil || str != s {
			t.Fatalf("after crash: Decode(%d) = %q,%v want %q", c, str, err, s)
		}
	}
}

func TestConcurrentEncode(t *testing.T) {
	d, _ := newTestDict(t, 64<<20)
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	results := make([]map[string]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := make(map[string]uint64)
			for i := 0; i < perWorker; i++ {
				// Heavy overlap across workers to exercise the double-check.
				s := fmt.Sprintf("shared-%d", i%100)
				c, err := d.Encode(s)
				if err != nil {
					t.Error(err)
					return
				}
				m[s] = c
			}
			results[w] = m
		}(w)
	}
	wg.Wait()
	// All workers must agree on every code.
	for s, c := range results[0] {
		for w := 1; w < workers; w++ {
			if results[w][s] != c {
				t.Fatalf("worker %d disagrees on %q: %d vs %d", w, s, results[w][s], c)
			}
		}
	}
	if d.Count() != 100 {
		t.Errorf("count = %d, want 100 distinct strings", d.Count())
	}
}

func TestDictBijectionProperty(t *testing.T) {
	d, _ := newTestDict(t, 64<<20)
	seen := map[uint64]string{}
	f := func(s string) bool {
		if len(s) > 1000 {
			s = s[:1000]
		}
		c, err := d.Encode(s)
		if err != nil {
			return false
		}
		if prev, ok := seen[c]; ok && prev != s {
			return false // two strings share a code
		}
		seen[c] = s
		back, err := d.Decode(c)
		return err == nil && back == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLongStrings(t *testing.T) {
	d, _ := newTestDict(t, 16<<20)
	long := make([]byte, 10000)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	c, err := d.Encode(string(long))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(c)
	if err != nil || got != string(long) {
		t.Error("long string round trip failed")
	}
}

func TestDecodeCacheServesHotCodes(t *testing.T) {
	d, dev := newTestDict(t, 8<<20)
	c, err := d.Encode("cached-string")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(c); err != nil { // populate the DRAM cache
		t.Fatal(err)
	}
	before := dev.Stats.Snapshot()
	for i := 0; i < 100; i++ {
		s, err := d.Decode(c)
		if err != nil || s != "cached-string" {
			t.Fatalf("Decode = %q, %v", s, err)
		}
	}
	delta := dev.Stats.Snapshot().Sub(before)
	if delta.Reads != 0 {
		t.Errorf("hot decodes did %d PMem reads, want 0 (hybrid dictionary, §8)", delta.Reads)
	}
	// A reopened dictionary starts with a cold cache but stays correct.
	d2 := Open(d.pool, d.hdr)
	if s, err := d2.Decode(c); err != nil || s != "cached-string" {
		t.Fatalf("cold decode = %q, %v", s, err)
	}
}

// TestEncodeDuringBulkBatchNoDeadlock is the lock-order regression for
// Encode vs EncodeTx: EncodeTx runs with the caller's pool transaction
// (and its lock) already open, then takes d.mu; Encode used to take
// d.mu first and then open a pool transaction — the inverted order
// deadlocked any concurrent Encode against an open bulk batch. Encode
// now opens its pool transaction before touching d.mu, so the
// concurrent encoder just parks on the pool lock.
//
// The schedule is forced, not left to chance: each round the bulk side
// opens its batch (pool lock held), signals the encoder, and sleeps so
// the encoder's Encode of a fresh string is in flight mid-batch before
// EncodeTx runs. Under the old order the encoder was then parked on the
// pool lock holding d.mu and the first EncodeTx deadlocked; the
// watchdog turns a reintroduced inversion into a failure with stacks
// instead of a hang.
func TestEncodeDuringBulkBatchNoDeadlock(t *testing.T) {
	d, _ := newTestDict(t, 16<<20)
	const rounds, perBatch = 20, 25
	batchOpen := make(chan int)
	encoded := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // bulk loader: EncodeTx inside long-lived batches
			defer wg.Done()
			defer close(batchOpen)
			for r := 0; r < rounds; r++ {
				tx := d.pool.Begin()
				batchOpen <- r
				time.Sleep(2 * time.Millisecond) // let the Encode get in flight
				for i := 0; i < perBatch; i++ {
					if _, err := d.EncodeTx(tx, fmt.Sprintf("bulk-%d-%d", r, i)); err != nil {
						t.Error(err)
						tx.Commit()
						return
					}
				}
				tx.Commit()
				// The encoder's in-flight Encode completes once the pool
				// lock frees; wait for it before opening the next batch.
				<-encoded
			}
		}()
		go func() { // online encoder, mid-batch by construction
			defer wg.Done()
			for r := range batchOpen {
				if _, err := d.Encode(fmt.Sprintf("online-%d", r)); err != nil {
					t.Error(err)
					return
				}
				encoded <- struct{}{}
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Encode/EncodeTx deadlocked:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if t.Failed() {
		return
	}
	// Every string from both sides must have been interned.
	for r := 0; r < rounds; r++ {
		for i := 0; i < perBatch; i++ {
			if _, ok := d.Lookup(fmt.Sprintf("bulk-%d-%d", r, i)); !ok {
				t.Fatalf("bulk-%d-%d missing", r, i)
			}
		}
		if _, ok := d.Lookup(fmt.Sprintf("online-%d", r)); !ok {
			t.Fatalf("online-%d missing", r)
		}
	}
	if probs := d.CheckIntegrity(); probs != nil {
		t.Fatalf("integrity violations: %v", probs)
	}
}

// TestLookupAroundTheInlineLength: strings on both sides of the length
// compared in a stack buffer are found again, and the in-place compare
// rejects a string that differs only in its last byte or its length.
func TestLookupAroundTheInlineLength(t *testing.T) {
	d, dev := newTestDict(t, 8<<20)
	for _, n := range []int{1, inlineCompare - 1, inlineCompare, inlineCompare + 1, 1000} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		s := string(b)
		c, err := d.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := d.Lookup(s); !ok || got != c {
			t.Errorf("length %d: Lookup = %d, %v; want %d, true", n, got, ok, c)
		}
		block := dev.ReadU64(dev.ReadU64(d.hdr+hRevDirOff) + c/revBlockCodes*8)
		off := dev.ReadU64(block + c%revBlockCodes*8)
		b[n-1] = '#'
		if !d.stringIs(off, s) || d.stringIs(off, string(b)) || d.stringIs(off, s[:n-1]) || d.stringIs(off, s+"a") {
			t.Errorf("length %d: the in-place compare does not tell the stored string from its neighbours", n)
		}
	}
}

// TestConcurrentDecodeWhileEncoding: four decoders read codes spread over
// several cache blocks — each filling slots the others race to fill —
// while an encoder grows the dictionary past a rehash and the decoders
// chase the codes it publishes. Every string matches, and a freshly
// opened dictionary, whose cache is empty, agrees.
func TestConcurrentDecodeWhileEncoding(t *testing.T) {
	d, _ := newTestDict(t, 64<<20)
	const preset, grown, decoders = 1536, 1536, 4
	want := make([]string, 0, preset+grown)
	codes := make([]uint64, preset+grown)
	for i := 0; i < preset; i++ {
		want = append(want, fmt.Sprintf("preset-%d", i))
	}
	for i := 0; i < grown; i++ {
		want = append(want, fmt.Sprintf("grown-%d", i))
	}
	for i := 0; i < preset; i++ {
		c, err := d.Encode(want[i])
		if err != nil {
			t.Fatal(err)
		}
		codes[i] = c
	}
	var published atomic.Int64 // codes[:published] are encoded
	published.Store(preset)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the encoder
		defer wg.Done()
		for i := preset; i < preset+grown; i++ {
			c, err := d.Encode(want[i])
			if err != nil {
				t.Error(err)
				return
			}
			codes[i] = c
			published.Store(int64(i + 1))
		}
	}()
	check := func(d *Dict, i int) bool {
		got, err := d.Decode(codes[i])
		if err != nil || got != want[i] {
			t.Errorf("Decode(%d) = %q, %v; want %q", codes[i], got, err, want[i])
			return false
		}
		return true
	}
	for w := 0; w < decoders; w++ {
		wg.Add(1)
		go func() { // each pass decodes what is new since the last, from its own start
			defer wg.Done()
			for seen := 0; seen < preset+grown; {
				n := int(published.Load())
				for k := 0; k < n-seen; k++ {
					if !check(d, seen+(k+w*preset/decoders)%(n-seen)) {
						return
					}
				}
				seen = n
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	fresh := Open(d.pool, d.hdr)
	for i := range codes {
		if !check(fresh, i) {
			return
		}
	}
}

// TestColdDecodeDeviceReads: the DRAM layer changes where a decoded
// string lives, not what a miss reads. A cold decode of strings from
// empty to longer than a cache chunk's own-buffer bound makes the device
// reads the dictionary made with a map for a cache (coldReads), and a
// warm one makes none.
func TestColdDecodeDeviceReads(t *testing.T) {
	d, dev := newTestDict(t, 8<<20)
	strs := []string{"", "a", "Person", "creationDate", strings.Repeat("x", 100), strings.Repeat("y", 3000)}
	codes := make([]uint64, len(strs))
	for i, s := range strs {
		var err error
		if codes[i], err = d.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	cold := Open(d.pool, d.hdr)
	decodeAll := func() uint64 {
		before := dev.Stats.Snapshot()
		for i, c := range codes {
			if got, err := cold.Decode(c); err != nil || got != strs[i] {
				t.Fatalf("Decode(%d) = %q, %v", c, got, err)
			}
		}
		return dev.Stats.Snapshot().Sub(before).Reads
	}
	const coldReads = 422
	if reads := decodeAll(); reads != coldReads {
		t.Errorf("a cold decode of %d strings read the device %d times, want %d", len(strs), reads, coldReads)
	}
	if reads := decodeAll(); reads != 0 {
		t.Errorf("a warm decode read the device %d times", reads)
	}
}
