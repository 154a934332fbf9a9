package storage

import (
	"reflect"
	"testing"

	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
)

func writeProps(t *testing.T, pool *pmemobj.Pool, tbl *Table, owner uint64, props []Prop) uint64 {
	t.Helper()
	var head uint64
	err := pool.RunTx(func(tx *pmemobj.Tx) error {
		var err error
		head, err = WritePropChainTx(tx, tbl, owner, props)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return head
}

func TestPropChainRoundTrip(t *testing.T) {
	pool, _ := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	props := []Prop{
		{Key: 1, Val: IntValue(-42)},
		{Key: 2, Val: FloatValue(3.14)},
		{Key: 3, Val: BoolValue(true)},
		{Key: 4, Val: StringValue(99)},
		{Key: 5, Val: IntValue(0)},
		{Key: 6, Val: BoolValue(false)},
		{Key: 7, Val: FloatValue(-1e300)},
	}
	head := writeProps(t, pool, tbl, 123, props)
	got := ReadPropChain(tbl, head)
	if !reflect.DeepEqual(got, props) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, props)
	}
}

func TestPropChainEmpty(t *testing.T) {
	pool, _ := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	head := writeProps(t, pool, tbl, 1, nil)
	if head != NilID {
		t.Errorf("empty prop chain head = %d, want NilID", head)
	}
	if got := ReadPropChain(tbl, NilID); got != nil {
		t.Errorf("ReadPropChain(NilID) = %v, want nil", got)
	}
}

func TestPropChainBatching(t *testing.T) {
	pool, _ := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	// Exactly PItemsMax props: one record. One more: two records.
	three := []Prop{{Key: 1, Val: IntValue(1)}, {Key: 2, Val: IntValue(2)}, {Key: 3, Val: IntValue(3)}}
	writeProps(t, pool, tbl, 1, three)
	if c := tbl.Count(); c != 1 {
		t.Errorf("3 props used %d records, want 1", c)
	}
	four := append(three, Prop{Key: 4, Val: IntValue(4)})
	writeProps(t, pool, tbl, 2, four)
	if c := tbl.Count(); c != 3 {
		t.Errorf("3+4 props used %d records total, want 3", c)
	}
}

func TestPropValueLookup(t *testing.T) {
	pool, _ := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	var props []Prop
	for k := uint32(1); k <= 10; k++ {
		props = append(props, Prop{Key: k, Val: IntValue(int64(k) * 100)})
	}
	head := writeProps(t, pool, tbl, 7, props)
	for k := uint32(1); k <= 10; k++ {
		v, ok := PropValue(tbl, head, k)
		if !ok || v.Int() != int64(k)*100 {
			t.Errorf("PropValue(%d) = %v,%v", k, v, ok)
		}
	}
	if _, ok := PropValue(tbl, head, 999); ok {
		t.Error("PropValue found a missing key")
	}
	if _, ok := PropValue(tbl, NilID, 1); ok {
		t.Error("PropValue on empty chain found a key")
	}
}

// A property record is read, and charged, once: 8 words and one cache
// probe per 64-byte record, however many of its items are in use.
func TestReadPropChainRecordGranular(t *testing.T) {
	dev := pmem.New(pmem.Config{
		Name:       "storage",
		Size:       16 << 20,
		Persistent: true,
		Profile:    pmem.Profile{ReadMiss: 1}, // nonzero so probes are charged
		CacheBytes: 1 << 20,
	})
	pool, err := pmemobj.Create(dev, pmemobj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})

	for n := 0; n <= 7; n++ {
		var props []Prop
		for k := 1; k <= n; k++ {
			props = append(props, Prop{Key: uint32(k), Val: IntValue(int64(k) * 10)})
		}
		recs := uint64((n + PItemsMax - 1) / PItemsMax)
		head := writeProps(t, pool, tbl, uint64(n), props)

		dev.DropCache()
		before := dev.Stats.Snapshot()
		got := ReadPropChain(tbl, head)
		delta := dev.Stats.Snapshot().Sub(before)
		if !reflect.DeepEqual(got, props) {
			t.Errorf("%d props: got %+v, want %+v", n, got, props)
		}
		if delta.CacheMisses != recs || delta.CacheHits != 0 || delta.Reads != recs*PropRecordSize/8 {
			t.Errorf("%d props in %d records, cold: %d misses, %d hits, %d word reads",
				n, recs, delta.CacheMisses, delta.CacheHits, delta.Reads)
		}

		if recs > 1 {
			part, ok := ReadPropChainInto(tbl, head, nil, int(recs)-1)
			if ok || !reflect.DeepEqual(part, props[:(recs-1)*PItemsMax]) {
				t.Errorf("%d props, bound %d: ok=%v, got %+v", n, recs-1, ok, part)
			}
		}
		if all, ok := ReadPropChainInto(tbl, head, nil, int(recs)); !ok || !reflect.DeepEqual(all, props) {
			t.Errorf("%d props, bound %d: ok=%v, got %+v", n, recs, ok, all)
		}

		before = dev.Stats.Snapshot()
		v, ok := PropValue(tbl, head, 1)
		delta = dev.Stats.Snapshot().Sub(before)
		if ok != (n > 0) || (ok && v.Int() != 10) {
			t.Errorf("%d props: PropValue(1) = %v, %v", n, v, ok)
		}
		if probes := delta.CacheHits + delta.CacheMisses; n > 0 && probes != 1 {
			t.Errorf("%d props: PropValue of the first item made %d probes, want 1", n, probes)
		}
	}
}

// TestReadPropChainIntoAppendsWithoutAllocating pins the contract the
// MVTO read builds on: the chain lands behind whatever dst already
// holds, inside dst's backing array while it fits (so a reader that
// brings a buffer allocates nothing), and spills to a fresh array — the
// old one untouched — once it does not.
func TestReadPropChainIntoAppendsWithoutAllocating(t *testing.T) {
	pool, _ := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	var props []Prop
	for k := uint32(1); k <= 7; k++ { // 3 records
		props = append(props, Prop{Key: k, Val: IntValue(int64(k))})
	}
	head := writeProps(t, pool, tbl, 9, props)

	buf := make([]Prop, 2, 16)
	buf[0], buf[1] = Prop{Key: 100}, Prop{Key: 101}
	got, ok := ReadPropChainInto(tbl, head, buf, 8)
	if !ok || len(got) != 9 || &got[0] != &buf[0] || !reflect.DeepEqual(got[2:], props) ||
		got[0].Key != 100 || got[1].Key != 101 {
		t.Fatalf("append into a roomy buffer: ok=%v, %+v", ok, got)
	}
	if n := testing.AllocsPerRun(50, func() { ReadPropChainInto(tbl, head, buf[:0], 8) }); n != 0 {
		t.Errorf("reading 7 props into a 16-prop buffer allocated %.0f times, want 0", n)
	}

	tight := make([]Prop, 0, 4)
	got, ok = ReadPropChainInto(tbl, head, tight, 8)
	if !ok || !reflect.DeepEqual(got, props) || cap(got) == cap(tight) {
		t.Errorf("spill past a 4-prop buffer: ok=%v cap=%d %+v", ok, cap(got), got)
	}
	if got, ok := ReadPropChainInto(tbl, NilID, tight, 8); !ok || len(got) != 0 {
		t.Errorf("empty chain: ok=%v, %+v", ok, got)
	}
}

// TestReadPropChainIntoTornPointer hand-corrupts a PNext to point outside
// the table, the way a reader can see it while the record is recycled
// under it: that is a torn walk (ok=false, revalidate), not end-of-chain
// with a partial set the caller may trust.
func TestReadPropChainIntoTornPointer(t *testing.T) {
	pool, dev := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	var props []Prop
	for k := uint32(1); k <= 5; k++ { // 2 records
		props = append(props, Prop{Key: k, Val: IntValue(int64(k))})
	}
	head := writeProps(t, pool, tbl, 3, props)
	off, _ := tbl.RecordOffset(head)
	good := dev.ReadU64(off + PNext)
	dev.WriteU64(off+PNext, tbl.MaxID()+12345) // not NilID, not a slot

	got, ok := ReadPropChainInto(tbl, head, nil, 8)
	if ok {
		t.Errorf("chain pointer outside the table reported ok=true with %+v", got)
	}
	if !reflect.DeepEqual(got, props[:PItemsMax]) {
		t.Errorf("partial walk = %+v, want the first record's items", got)
	}
	dev.WriteU64(off+PNext, good)
	if got, ok := ReadPropChainInto(tbl, head, nil, 8); !ok || !reflect.DeepEqual(got, props) {
		t.Errorf("restored chain: ok=%v, %+v", ok, got)
	}
}

func TestFreePropChainReleasesAllRecords(t *testing.T) {
	pool, _ := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, PropRecordSize, Options{})
	var props []Prop
	for k := uint32(1); k <= 8; k++ { // 3 records
		props = append(props, Prop{Key: k, Val: IntValue(int64(k))})
	}
	head := writeProps(t, pool, tbl, 7, props)
	if tbl.Count() != 3 {
		t.Fatalf("setup: %d records", tbl.Count())
	}
	err := pool.RunTx(func(tx *pmemobj.Tx) error {
		return FreePropChainTx(tx, tbl, head)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Count() != 0 {
		t.Errorf("records after free = %d, want 0", tbl.Count())
	}
}

func TestNodeRecRoundTrip(t *testing.T) {
	pool, dev := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, NodeRecordSize, Options{})
	_, off, _ := tbl.Insert()
	want := NodeRec{
		TxnID: 9, Bts: 10, Ets: 11,
		Label: 12, Flags: FlagTombstone,
		Out: 13, In: NilID, Props: 15,
	}
	WriteNodeRec(dev, off, &want)
	if got := ReadNodeRec(dev, off); got != want {
		t.Errorf("node record round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestRelRecRoundTrip(t *testing.T) {
	pool, dev := newTestPool(t, 16<<20)
	tbl, _ := CreateTable(pool, RelRecordSize, Options{})
	_, off, _ := tbl.Insert()
	want := RelRec{
		TxnID: 1, Bts: 2, Ets: 3,
		Label: 4, Flags: 0,
		Src: 5, Dst: 6, NextSrc: NilID, NextDst: 8, Props: NilID,
	}
	WriteRelRec(dev, off, &want)
	if got := ReadRelRec(dev, off); got != want {
		t.Errorf("rel record round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestValueHelpers(t *testing.T) {
	if v := IntValue(-5); v.Int() != -5 || v.Type != TypeInt {
		t.Error("IntValue broken")
	}
	if v := FloatValue(2.5); v.Float() != 2.5 {
		t.Error("FloatValue broken")
	}
	if !BoolValue(true).Bool() || BoolValue(false).Bool() {
		t.Error("BoolValue broken")
	}
	if StringValue(7).Code() != 7 {
		t.Error("StringValue broken")
	}
	if !(Value{}).IsNil() || IntValue(1).IsNil() {
		t.Error("IsNil broken")
	}
	if !IntValue(1).Less(IntValue(2)) || IntValue(2).Less(IntValue(1)) {
		t.Error("Less(int) broken")
	}
	if !IntValue(-1).Less(IntValue(0)) {
		t.Error("Less must be signed for ints")
	}
	if !FloatValue(1.5).Less(FloatValue(2.5)) {
		t.Error("Less(float) broken")
	}
}
