package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"poseidon/internal/pmem"
	"poseidon/internal/storage"
)

// Label-first reads: what a read touches on the device, what a snapshot
// owns, and the protocol behaviour that must not have moved.

// countEngine is a single-shard PMem engine whose device counts cache
// probes (any nonzero latency turns the probe accounting on) without
// spending real time on them.
func countEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Config{Mode: PMem, PoolSize: 64 << 20, Shards: 1, Profile: &pmem.Profile{ReadMiss: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// mixedGraph commits 48 nodes — label A with 2 properties (one chain
// record), B with 4 (two), C with 7 (three), interleaved — and 12
// relationships out of node 0, alternately x (1 property) and y (4).
func mixedGraph(t *testing.T, e *Engine) (nodes, rels []uint64) {
	t.Helper()
	tx := e.Begin()
	for i := 0; i < 48; i++ {
		label, n := "A", 2
		switch i % 3 {
		case 1:
			label, n = "B", 4
		case 2:
			label, n = "C", 7
		}
		props := map[string]any{}
		for k := 0; k < n; k++ {
			props[fmt.Sprintf("p%d", k)] = int64(100*i + k)
		}
		nodes = append(nodes, mustCreateNode(t, tx, label, props))
	}
	for i := 1; i <= 12; i++ {
		label, props := "x", map[string]any{"w": int64(i)}
		if i%2 == 1 {
			label, props = "y", map[string]any{"w": int64(i), "a": int64(1), "b": int64(2), "c": int64(3)}
		}
		r, err := tx.CreateRel(nodes[0], nodes[i], label, props)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	mustCommit(t, tx)
	return nodes, rels
}

// coldDelta runs fn against a cold simulated cache and returns what it
// cost on the device.
func coldDelta(e *Engine, fn func()) pmem.StatsSnapshot {
	e.dev.DropCache()
	before := e.dev.Stats.Snapshot()
	fn()
	return e.dev.Stats.Snapshot().Sub(before)
}

// lineSet collects the cache lines a read is expected to probe.
type lineSet map[uint64]bool

func (s lineSet) add(offs ...uint64) {
	for _, off := range offs {
		s[off/pmem.LineSize] = true
	}
}

// chainLines adds the line each record of a property chain is probed at.
func chainLines(e *Engine, s lineSet, head uint64) {
	for id := head; id != storage.NilID; {
		off, _ := e.props.RecordOffset(id)
		s.add(off)
		id = e.dev.ReadU64(off + storage.PNext)
	}
}

func labelCode(t *testing.T, e *Engine, name string) uint32 {
	t.Helper()
	code, ok := e.dict.Lookup(name)
	if !ok {
		t.Fatalf("label %q not in the dictionary", name)
	}
	return uint32(code)
}

// TestLabelScanTouchesOnlyMatchingChains: a label scan probes the
// occupancy bitmap and the records and property chains of the matching
// nodes — not one line of a record or a chain of another label, which the
// label mirror passes over. Filter-after-read walked all 48 chains; a
// label-first read without the mirror still probed every record.
func TestLabelScanTouchesOnlyMatchingChains(t *testing.T) {
	e := countEngine(t)
	nodes, _ := mixedGraph(t, e)
	tx := e.Begin()
	defer tx.Abort()

	for _, tc := range []struct {
		label   string
		matches int
	}{{"A", 16}, {"B", 16}, {"C", 16}} {
		want := lineSet{}
		for id := uint64(0); id < e.tables[kindNode].MaxID(); id += 64 {
			off, _ := e.tables[kindNode].BitmapWordOff(id)
			want.add(off)
		}
		code := labelCode(t, e, tc.label)
		for _, id := range nodes {
			off, _ := e.tables[kindNode].RecordOffset(id)
			if rec := storage.ReadNodeRec(e.dev, off); rec.Label == code {
				want.add(off, off+storage.NBts, off+storage.NEts)
				chainLines(e, want, rec.Props)
			}
		}
		got := 0
		d := coldDelta(e, func() {
			it := tx.NewNodeIter(code)
			for {
				ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
				got++
			}
		})
		if got != tc.matches {
			t.Errorf("label %s: %d nodes, want %d", tc.label, got, tc.matches)
		}
		if d.CacheMisses != uint64(len(want)) {
			t.Errorf("label %s scan: %d cold misses, want %d (bitmap + matching headers and chains only)",
				tc.label, d.CacheMisses, len(want))
		}
	}

	// The same through an adjacency walk: the list runs through all 12
	// records, but of a y only its list pointer is read; the chains of the
	// 6 x only.
	n0, err := tx.GetNode(nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	x := labelCode(t, e, "x")
	d := coldDelta(e, func() {
		it := tx.NewOutRelIter(n0, x)
		for n := 0; ; n++ {
			ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if n != 6 {
					t.Errorf("x out-rels = %d, want 6", n)
				}
				return
			}
		}
	})
	// Per x record 15 words in 8 probes (occupancy word; Bts, Ets, the
	// 9-word record over two lines, then TxnID, Bts, Ets again), per y 2
	// words in 2 probes (occupancy word, NextSrc): the label mirror knows
	// the y, so the walk takes only its list pointer. The 12 records span
	// 14 lines beside the bitmap's one; 6 one-record chains. Before the
	// mirror the walk read each y like an x (12*15 words in 12*8 probes);
	// filter-after-read also walked the 6 two-record chains of the y.
	if want := (pmem.StatsSnapshot{Reads: 6*15 + 6*2 + 6*8, CacheHits: 6*8 + 6*2 + 6 - 21, CacheMisses: 15 + 6}); d != want {
		t.Errorf("label-x expansion: %+v, want %+v", d, want)
	}
}

// TestUnfilteredReadsTouchWhatTheyDid pins the device cost of reads that
// carry no label — a label-0 scan, the callback scan, point GetNode and
// GetRel, and the relationship walkers — at the numbers measured before
// reads went label-first: the pushed-down test must change nothing for
// them.
func TestUnfilteredReadsTouchWhatTheyDid(t *testing.T) {
	e := countEngine(t)
	nodes, rels := mixedGraph(t, e)
	tx := e.Begin()
	defer tx.Abort()

	// 19 occupancy words (3 lines) walk the chunk; each node costs 13 words
	// in 7 probes (occupancy word; Bts, Ets, the 7-word record, then TxnID,
	// Bts, Ets again), the 48 records spanning 42 lines; 16×(1+2+3) chain
	// records of 8 words, one probe and one line each.
	scan := pmem.StatsSnapshot{Reads: 19 + 48*13 + 96*8, CacheHits: 19 + 48*7 - 3 - 42, CacheMisses: 3 + 42 + 96}
	if d := coldDelta(e, func() {
		it := tx.NewNodeIter(0)
		for {
			if ok, err := it.Next(); !ok || err != nil {
				return
			}
		}
	}); d != scan {
		t.Errorf("label-0 NodeIter: %+v, want %+v", d, scan)
	}
	if d := coldDelta(e, func() {
		_ = tx.ScanNodes(func(NodeSnap) bool { return true })
	}); d != scan {
		t.Errorf("ScanNodes: %+v, want %+v", d, scan)
	}

	// One C node, whose record straddles two lines: the bitmap line, the
	// record's two, three chain records.
	if d, want := coldDelta(e, func() {
		if _, err := tx.GetNode(nodes[2]); err != nil {
			t.Fatal(err)
		}
	}), (pmem.StatsSnapshot{Reads: 13 + 3*8, CacheHits: 7 - 3, CacheMisses: 3 + 3}); d != want {
		t.Errorf("GetNode: %+v, want %+v", d, want)
	}
	// One y relationship: 15 words in 8 probes, two chain records.
	if d, want := coldDelta(e, func() {
		if _, err := tx.GetRel(rels[0]); err != nil {
			t.Fatal(err)
		}
	}), (pmem.StatsSnapshot{Reads: 15 + 2*8, CacheHits: 8 - 3, CacheMisses: 3 + 2}); d != want {
		t.Errorf("GetRel: %+v, want %+v", d, want)
	}

	// The relationship walkers, at the numbers of the separate node and
	// relationship read paths. A table scan walks 15 occupancy words (3
	// lines); each of the 12 relationships costs 15 words in 8 probes
	// (occupancy word; Bts, Ets, the 9-word record over two lines, then
	// TxnID, Bts, Ets again), the records spanning 14 lines; the 6 x own
	// one chain record and the 6 y two, 18 records of 8 words.
	relScan := pmem.StatsSnapshot{Reads: 15 + 12*15 + 18*8, CacheHits: 15 + 12*8 + 18 - 35, CacheMisses: 3 + 14 + 18}
	if d := coldDelta(e, func() {
		it := tx.NewRelIter(0)
		for {
			if ok, err := it.Next(); !ok || err != nil {
				return
			}
		}
	}); d != relScan {
		t.Errorf("label-0 RelTableIter: %+v, want %+v", d, relScan)
	}
	if d := coldDelta(e, func() {
		_ = tx.ScanRels(func(RelSnap) bool { return true })
	}); d != relScan {
		t.Errorf("ScanRels: %+v, want %+v", d, relScan)
	}
	// Node 0's out-list: the same per-record cost with no bitmap walk
	// (each record's occupancy check shares one bitmap line).
	n0, err := tx.GetNode(nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if d, want := coldDelta(e, func() {
		it := tx.NewOutRelIter(n0, 0)
		for {
			if ok, err := it.Next(); !ok || err != nil {
				return
			}
		}
	}), (pmem.StatsSnapshot{Reads: 12*15 + 18*8, CacheHits: 12*8 + 18 - 33, CacheMisses: 1 + 14 + 18}); d != want {
		t.Errorf("out-list AdjIter: %+v, want %+v", d, want)
	}
}

// TestScanWalkerHoldsOneRow: a table scan's walker rewrites one property
// buffer row after row, so a snapshot is valid until its next Next; a
// keeper's OwnNode/OwnRel copies, taken over one pass, still hold what a
// fresh point read returns after the walker has scanned again; and the
// walker's allocations do not grow with the rows it reads.
func TestScanWalkerHoldsOneRow(t *testing.T) {
	e := newTestEngine(t, DRAM)
	const n = 700 // × 5 properties: seven 512-property slabs' worth
	five := func(i int) map[string]any {
		props := map[string]any{}
		for k := 0; k < 5; k++ {
			props[fmt.Sprintf("p%d", k)] = int64(10*i + k)
		}
		return props
	}
	tx := e.Begin()
	prev := storage.NilID
	for i := 0; i < n; i++ {
		id := mustCreateNode(t, tx, "K", five(i))
		mustCreateNode(t, tx, "Other", map[string]any{"z": int64(i)})
		if prev != storage.NilID {
			if _, err := tx.CreateRel(prev, id, "R", five(i)); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	mustCommit(t, tx)
	rd := e.Begin()
	defer rd.Abort()
	k, r := labelCode(t, e, "K"), labelCode(t, e, "R")

	var nodes NodeIter
	nodes.Reset(rd, 0, ^uint64(0), k)
	for i := 0; i < 2; i++ {
		if ok, err := nodes.Next(); !ok || err != nil {
			t.Fatalf("Next: %v, %v", ok, err)
		}
	}
	first := nodes.Node().Props()
	if ok, err := nodes.Next(); !ok || err != nil {
		t.Fatalf("Next: %v, %v", ok, err)
	}
	if second := nodes.Node().Props(); len(first) != 5 || &second[0] != &first[0] {
		t.Fatal("the next row's property set went to a new array, not the walker's one buffer")
	}

	var slab PropSlab
	var keptNodes []NodeSnap
	var keptRels []RelSnap
	var rels RelTableIter
	for pass := 0; pass < 2; pass++ {
		nodes.Reset(rd, 0, ^uint64(0), k)
		for {
			ok, err := nodes.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if pass == 0 {
				keptNodes = append(keptNodes, slab.OwnNode(nodes.Node()))
			}
		}
		rels.Reset(rd, 0, ^uint64(0), r)
		for {
			ok, err := rels.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if pass == 0 {
				keptRels = append(keptRels, slab.OwnRel(rels.Rel()))
			}
		}
	}
	if len(keptNodes) != n || len(keptRels) != n-1 {
		t.Fatalf("kept %d nodes and %d relationships, want %d and %d", len(keptNodes), len(keptRels), n, n-1)
	}
	for i, s := range keptNodes {
		if i+1 < len(keptNodes) {
			_ = append(s.Props(), storage.Prop{Key: 999999})
		}
		fresh, err := rd.GetNode(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Props(), fresh.Props()) || len(s.Props()) != 5 {
			t.Fatalf("owned copy %d of node %d holds %v, a fresh read %v", i, s.ID, s.Props(), fresh.Props())
		}
	}
	for i, s := range keptRels {
		fresh, err := rd.GetRel(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Props(), fresh.Props()) || len(s.Props()) != 5 {
			t.Fatalf("owned copy %d of relationship %d holds %v, a fresh read %v", i, s.ID, s.Props(), fresh.Props())
		}
	}

	// A fresh walker over every K node allocates what one over a tenth
	// of them does: its buffer, once.
	passAllocs := func(rows int) float64 {
		to := keptNodes[rows-1].ID + 1
		return testing.AllocsPerRun(5, func() {
			it := new(NodeIter)
			it.Reset(rd, 0, to, k)
			got := 0
			for {
				ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got++
			}
			if got != rows {
				t.Fatalf("a pass read %d rows, want %d", got, rows)
			}
		})
	}
	if few, all := passAllocs(n/10), passAllocs(n); all != few {
		t.Errorf("a walker's allocations grew with its rows: %.0f over %d, %.0f over %d", few, n/10, all, n)
	}
}

// TestScanPassesOverLockedSlotOfOtherLabel: a table scan for label A has
// no read dependency on a record of another label (a slot's label never
// changes), so it passes over a B record without its lock check or rts
// bump: the scan completes over a write-locked B node, and a B writer older
// than the reader still commits. What the scan does read keeps the
// protocol: a write-locked A node aborts it. A label-x expansion passes
// over a y relationship reading only its list pointer: it completes over
// a write-locked y, and raises y's rts for the word it read, so a y writer
// older than the reader that locks y after the walk aborts.
func TestScanPassesOverLockedSlotOfOtherLabel(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		a := mustCreateNode(t, setup, "A", map[string]any{"v": int64(1)})
		b := mustCreateNode(t, setup, "B", map[string]any{"v": int64(2)})
		if _, err := setup.CreateRel(a, b, "x", nil); err != nil {
			t.Fatal(err)
		}
		y, err := setup.CreateRel(a, b, "y", nil)
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, setup)
		aCode := labelCode(t, e, "A")
		scanA := func(tx *Tx) ([]uint64, error) {
			var ids []uint64
			it := tx.NewNodeIter(aCode)
			for {
				ok, err := it.Next()
				if !ok || err != nil {
					return ids, err
				}
				ids = append(ids, it.Node().ID)
			}
		}
		wantValidationAbort := func(what string, err error) {
			t.Helper()
			if reason, ok := ReasonOf(err); !errors.Is(err, ErrAborted) || !ok || reason != AbortValidation {
				t.Fatalf("%s: err = %v, want an AbortValidation abort", what, err)
			}
		}

		w := e.Begin() // older than the reader
		rd := e.Begin()
		if got, err := scanA(rd); err != nil || !reflect.DeepEqual(got, []uint64{a}) {
			t.Fatalf("label-A scan = %v, %v; want [%d]", got, err, a)
		}
		if err := w.SetNodeProps(b, map[string]any{"v": int64(3)}); err != nil {
			t.Fatalf("an older B writer after a label-A scan: %v (the scan bumped B's rts)", err)
		}
		if got, err := scanA(rd); err != nil || !reflect.DeepEqual(got, []uint64{a}) {
			t.Fatalf("label-A scan over a write-locked B node = %v, %v; want [%d]", got, err, a)
		}
		mustCommit(t, w)
		rd.Abort()

		w = e.Begin()
		if err := w.SetNodeProps(a, map[string]any{"v": int64(4)}); err != nil {
			t.Fatal(err)
		}
		rd = e.Begin()
		_, err = scanA(rd)
		wantValidationAbort("label-A scan over a write-locked A node", err)
		w.Abort()

		xCode := labelCode(t, e, "x")
		expandX := func(tx *Tx) (int, error) {
			n, err := tx.GetNode(a)
			if err != nil {
				return 0, err
			}
			it := tx.NewOutRelIter(n, xCode)
			for found := 0; ; found++ {
				if ok, err := it.Next(); !ok || err != nil {
					return found, err
				}
			}
		}
		w = e.Begin()
		if err := w.SetRelProps(y, map[string]any{"w": int64(1)}); err != nil {
			t.Fatal(err)
		}
		rd = e.Begin()
		if got, err := expandX(rd); err != nil || got != 1 {
			t.Fatalf("label-x expansion over a write-locked y relationship = %d, %v; want 1 x", got, err)
		}
		rd.Abort()
		w.Abort()

		w = e.Begin() // older than the reader
		rd = e.Begin()
		defer rd.Abort()
		if got, err := expandX(rd); err != nil || got != 1 {
			t.Fatalf("label-x expansion = %d, %v; want 1 x", got, err)
		}
		wantValidationAbort("an older y writer after a label-x expansion",
			w.SetRelProps(y, map[string]any{"w": int64(2)}))
		w.Abort()
	})
}

// TestLabelledGetNodeReadsOnlyItsLabel: a labelled point read of a node
// the label mirror knows to carry another label touches no line of its
// record or chain; one the mirror does not know is read through the
// protocol, which skips the chain of another label. Either way it is not
// found, and a node of the label costs what an unlabelled read does.
func TestLabelledGetNodeReadsOnlyItsLabel(t *testing.T) {
	e := countEngine(t)
	nodes, _ := mixedGraph(t, e)
	tx := e.Begin()
	defer tx.Abort()
	aCode, cCode := labelCode(t, e, "A"), labelCode(t, e, "C")
	c := nodes[2] // a C node, its record over two lines, three chain records

	var slab PropSlab
	if d := coldDelta(e, func() {
		if _, err := tx.GetNodeOf(c, aCode); err != ErrNotFound {
			t.Fatalf("label-A GetNodeOf of a C node: %v, want ErrNotFound", err)
		}
		if _, err := tx.GetNodeIn(c, aCode, &slab); err != ErrNotFound {
			t.Fatalf("label-A GetNodeIn of a C node: %v, want ErrNotFound", err)
		}
	}); d != (pmem.StatsSnapshot{}) {
		t.Errorf("label-A reads of a mirrored C node: %+v, want no device access", d)
	}

	plain := coldDelta(e, func() {
		if _, err := tx.GetNode(c); err != nil {
			t.Fatal(err)
		}
	})
	var snap NodeSnap
	if d := coldDelta(e, func() {
		var err error
		if snap, err = tx.GetNodeIn(c, cCode, &slab); err != nil {
			t.Fatal(err)
		}
	}); d != plain {
		t.Errorf("label-C GetNodeIn of a C node: %+v, want an unlabelled read's %+v", d, plain)
	}
	if len(snap.Props()) != 7 || snap.Rec.Label != cCode {
		t.Errorf("label-C GetNodeIn = label %d, props %v; want the C node's 7", snap.Rec.Label, snap.Props())
	}

	// Unknown to the mirror: the bitmap line and the record's two lines,
	// no chain record.
	e.labels[kindNode].clear(c)
	defer e.labels[kindNode].set(c, cCode)
	if d, want := coldDelta(e, func() {
		if _, err := tx.GetNodeOf(c, aCode); err != ErrNotFound {
			t.Fatalf("label-A GetNodeOf of an unmirrored C node: %v, want ErrNotFound", err)
		}
	}), (pmem.StatsSnapshot{Reads: 13, CacheHits: 7 - 3, CacheMisses: 3}); d != want {
		t.Errorf("label-A GetNodeOf of an unmirrored C node: %+v, want %+v", d, want)
	}
}

// TestLabelledGetNodeHasNoDependencyOnOtherLabels: a labelled point read
// neither checks the lock of nor bumps the rts of a node of another label
// — it completes over a write-locked one, and an older writer of it still
// commits — while a read of its own label keeps the protocol. The
// transaction's own writes are judged by their dirty versions.
func TestLabelledGetNodeHasNoDependencyOnOtherLabels(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		a := mustCreateNode(t, setup, "A", map[string]any{"v": int64(1)})
		b := mustCreateNode(t, setup, "B", map[string]any{"v": int64(2)})
		mustCommit(t, setup)
		aCode, bCode, vKey := labelCode(t, e, "A"), labelCode(t, e, "B"), labelCode(t, e, "v")

		w := e.Begin() // older than the reader
		rd := e.Begin()
		if _, err := rd.GetNodeOf(b, aCode); err != ErrNotFound {
			t.Fatalf("label-A read of a B node: %v, want ErrNotFound", err)
		}
		if err := w.SetNodeProps(b, map[string]any{"v": int64(3)}); err != nil {
			t.Fatalf("an older B writer after a label-A read: %v (the read bumped B's rts)", err)
		}
		if _, err := rd.GetNodeOf(b, aCode); err != ErrNotFound {
			t.Fatalf("label-A read of a write-locked B node: %v, want ErrNotFound", err)
		}
		_, err := rd.GetNodeOf(b, bCode)
		if reason, ok := ReasonOf(err); !errors.Is(err, ErrAborted) || !ok || reason != AbortValidation {
			t.Fatalf("label-B read of a write-locked B node: %v, want an AbortValidation abort", err)
		}
		mustCommit(t, w)

		tx := e.Begin()
		defer tx.Abort()
		c := mustCreateNode(t, tx, "A", map[string]any{"v": int64(4)})
		if err := tx.SetNodeProps(c, map[string]any{"v": int64(5)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.DeleteNode(a); err != nil {
			t.Fatal(err)
		}
		if n, err := tx.GetNodeOf(c, aCode); err != nil || n.Rec.Label != aCode {
			t.Fatalf("label-A read of the transaction's own A insert: %+v, %v", n, err)
		} else if v, _ := n.Prop(vKey); v.Int() != 5 {
			t.Errorf("own insert reads v = %v, want its update's 5", v)
		}
		if _, err := tx.GetNodeOf(c, bCode); err != ErrNotFound {
			t.Errorf("label-B read of the transaction's own A insert: %v, want ErrNotFound", err)
		}
		if _, err := tx.GetNodeOf(a, aCode); err != ErrNotFound {
			t.Errorf("label-A read of an A node the transaction deleted: %v, want ErrNotFound", err)
		}
		if n, err := tx.GetNodeOf(b, bCode); err != nil {
			t.Errorf("label-B read of the committed B node: %v", err)
		} else if v, _ := n.Prop(vKey); v.Int() != 3 {
			t.Errorf("B node reads v = %v, want the committed 3", v)
		}
	})
}

// TestLabelScanReadsTheVersionChain: a reader older than the PMem record
// takes its version from the DRAM chain, under the same label test — the
// matching scan returns the superseded property set, another label's scan
// does not return the node at all.
func TestLabelScanReadsTheVersionChain(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		setup := e.Begin()
		a := mustCreateNode(t, setup, "A", map[string]any{"v": int64(1)})
		mustCreateNode(t, setup, "B", map[string]any{"v": int64(7)})
		mustCommit(t, setup)

		old := e.Begin()
		defer old.Abort()
		w := e.Begin()
		if err := w.SetNodeProps(a, map[string]any{"v": int64(2)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, w)

		vKey := labelCode(t, e, "v")
		scan := func(tx *Tx, label string) map[uint64]int64 {
			out := map[uint64]int64{}
			it := tx.NewNodeIter(labelCode(t, e, label))
			for {
				ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return out
				}
				v, _ := it.Node().Prop(vKey)
				out[it.Node().ID] = v.Int()
			}
		}
		if got := scan(old, "A"); len(got) != 1 || got[a] != 1 {
			t.Errorf("old reader's label-A scan = %v, want node %d with the superseded v=1", got, a)
		}
		if got := scan(old, "B"); len(got) != 1 || got[a] != 0 {
			t.Errorf("old reader's label-B scan = %v, must not hold A node %d", got, a)
		}
		now := e.Begin()
		defer now.Abort()
		if got := scan(now, "A"); len(got) != 1 || got[a] != 2 {
			t.Errorf("new reader's label-A scan = %v, want v=2", got)
		}
	})
}

// TestSnapshotOfOwnWriteSeesLaterSetProps: a snapshot of an object the
// transaction itself wrote reads through the dirty version, so it follows
// that transaction's later updates (CREATE … SET … RETURN in one
// statement relies on it).
func TestSnapshotOfOwnWriteSeesLaterSetProps(t *testing.T) {
	e := newTestEngine(t, DRAM)
	tx := e.Begin()
	defer tx.Abort()
	id := mustCreateNode(t, tx, "A", map[string]any{"v": int64(1)})
	snap, err := tx.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetNodeProps(id, map[string]any{"v": int64(2), "w": int64(3)}); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Prop(labelCode(t, e, "v")); !ok || v.Int() != 2 {
		t.Errorf("snapshot taken before SetNodeProps reads v = %v, %v; want 2", v, ok)
	}
	if len(snap.Props()) != 2 {
		t.Errorf("Props() = %v, want both properties", snap.Props())
	}
}

// TestLabelReadersNeverSeeMixedVersions is the race stress of the
// label-first read (it runs under the detector in CI's race job): label
// scanners and labelled expanders run against writers that rewrite every
// property of the matching objects in one transaction, while a churn
// writer creates and deletes nodes and relationships, so that freed chain
// records are recycled under the readers. After each churn round it waits
// for a moment without transactions, in which GC reclaims the round's
// deletions, and its next round's inserts take those slots under a new
// label (N and P alternate, and one churned node is an M), so the label
// mirror changes under the scanners; labelled endpoint readers fetch
// every slot as an M, and each hub relationship's endpoint as an M and as
// an N. Every version ever committed has all
// its value properties equal; a snapshot that shows two different values
// mixed two versions. A label-M scan returns every fixed M node and at
// most one churned one (whether it returns one depends on where it was
// when the churn inserted it: a scan does not see an insert into a slot it
// has passed), and at the end every mirrored label is its record's.
func TestLabelReadersNeverSeeMixedVersions(t *testing.T) {
	bothModes(t, func(t *testing.T, e *Engine) {
		const objects, rounds = 12, 120
		vals := func(v int64) map[string]any {
			return map[string]any{"a": v, "b": v, "c": v, "d": v, "e": v} // two chain records
		}
		setup := e.Begin()
		hub := mustCreateNode(t, setup, "Hub", nil)
		churned := []uint64{mustCreateNode(t, setup, "M", vals(-1))} // the churn's M
		var ms, rs []uint64
		for i := 0; i < objects; i++ {
			m := mustCreateNode(t, setup, "M", vals(0))
			mustCreateNode(t, setup, "N", vals(-1))
			r, err := setup.CreateRel(hub, m, "m", vals(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := setup.CreateRel(hub, m, "n", vals(-1)); err != nil {
				t.Fatal(err)
			}
			ms, rs = append(ms, m), append(rs, r)
		}
		mustCommit(t, setup)
		mCode, nCode, relCode := labelCode(t, e, "M"), labelCode(t, e, "N"), labelCode(t, e, "m")

		// uniform reports the first mixed property set.
		uniform := func(kind string, id uint64, label, want uint32, props []storage.Prop) error {
			if label != want {
				return fmt.Errorf("%s %d has label %d, the walker asked for %d", kind, id, label, want)
			}
			if len(props) != 5 {
				return fmt.Errorf("%s %d: %d properties, want 5: %v", kind, id, len(props), props)
			}
			for _, p := range props[1:] {
				if p.Val != props[0].Val {
					return fmt.Errorf("%s %d mixes versions: %v", kind, id, props)
				}
			}
			return nil
		}

		// Every transaction holds quiet's read side; the churn writer takes
		// the write side to end one of its own while no other is active,
		// which is when GC reclaims slots.
		var quiet sync.RWMutex
		var stop atomic.Bool
		var scans, walks, fetches, commits, reused atomic.Int64
		errCh := make(chan error, 16)
		fail := func(err error) {
			if err = ignorable(err); err != nil {
				select {
				case errCh <- err:
				default:
				}
				stop.Store(true)
			}
		}
		var writers, readers sync.WaitGroup
		// Writers of the matching objects.
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 1; i <= rounds && !stop.Load(); i++ {
					quiet.RLock()
					tx := e.Begin()
					k := (i*2 + w) % objects
					err := tx.SetNodeProps(ms[k], vals(int64(i)))
					if err == nil {
						err = tx.SetRelProps(rs[k], vals(int64(i)))
					}
					if err == nil {
						err = tx.Commit()
					}
					if err != nil {
						tx.Abort()
					}
					quiet.RUnlock()
					if err != nil {
						fail(err)
						continue
					}
					commits.Add(1)
				}
			}(w)
		}
		// Churn: each round's nodes and relationship die in the next,
		// handing their chain records and, once reclaimed, their slots back.
		writers.Add(1)
		go func() {
			defer writers.Done()
			prev, freed := churned, map[uint64]bool{}
			for i := 0; i < rounds && !stop.Load(); i++ {
				label := []string{"N", "P"}[i%2]
				quiet.RLock()
				tx := e.Begin()
				var fresh []uint64
				var err error
				for _, id := range prev {
					if err == nil {
						err = tx.DetachDeleteNode(id)
					}
				}
				for _, l := range []string{label, label, "M"} {
					var id uint64
					if err == nil {
						if id, err = tx.CreateNode(l, vals(-1)); err == nil {
							fresh = append(fresh, id)
						}
					}
				}
				if err == nil {
					_, err = tx.CreateRel(fresh[0], fresh[1], strings.ToLower(label), vals(-1))
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					tx.Abort()
				}
				quiet.RUnlock()
				if err != nil {
					fail(err)
					continue // prev stays for the next round
				}
				for _, id := range fresh {
					if freed[id] {
						reused.Add(1)
					}
				}
				for _, id := range prev {
					freed[id] = true
				}
				prev = fresh
				quiet.Lock()
				e.Begin().Abort() // the only transaction: its end reclaims prev's deletions
				quiet.Unlock()
			}
		}()
		// Label scanners.
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				var it NodeIter
				for !stop.Load() {
					quiet.RLock()
					tx := e.Begin()
					it.Reset(tx, 0, ^uint64(0), mCode)
					n, fixed := 0, 0
					ok, err := it.Next()
					for ; ok && err == nil; ok, err = it.Next() {
						s := it.Node()
						if err = uniform("node", s.ID, s.Rec.Label, mCode, s.Props()); err != nil {
							break
						}
						n++
						if slices.Contains(ms, s.ID) {
							fixed++
						}
					}
					tx.Abort()
					quiet.RUnlock()
					if err != nil {
						fail(err)
					} else if fixed != objects || n > objects+1 {
						fail(fmt.Errorf("label-M scan returned %d nodes, %d of the %d fixed ones", n, fixed, objects))
					} else {
						scans.Add(1)
					}
				}
			}()
		}
		// Labelled expanders.
		readers.Add(1)
		go func() {
			defer readers.Done()
			var it AdjIter
			for !stop.Load() {
				quiet.RLock()
				tx := e.Begin()
				h, err := tx.GetNode(hub)
				n := 0
				if err == nil {
					it.Reset(tx, h.Rec.Out, true, relCode)
					var ok bool
					for ok, err = it.Next(); ok && err == nil; ok, err = it.Next() {
						r := it.Rel()
						if err = uniform("relationship", r.ID, r.Rec.Label, relCode, r.Props()); err != nil {
							break
						}
						n++
					}
				}
				tx.Abort()
				quiet.RUnlock()
				if err != nil {
					fail(err)
				} else if n != objects {
					fail(fmt.Errorf("label-m expansion returned %d relationships, want %d", n, objects))
				} else {
					walks.Add(1)
				}
			}
		}()
		// Labelled endpoint readers: a fetch for M of every slot returns the
		// fixed M nodes and at most one churned one (the churn's M of the
		// reader's snapshot, unless the churn replaced it between two
		// fetches), each whole; every hub relationship ends at a fixed M,
		// which a fetch for N does not return.
		readers.Add(1)
		go func() {
			defer readers.Done()
			var slab PropSlab
			for !stop.Load() {
				quiet.RLock()
				tx := e.Begin()
				slab.Rewind()
				n, fixed := 0, 0
				var err error
				for id := uint64(0); id < e.tables[kindNode].MaxID() && err == nil; id++ {
					var s NodeSnap
					switch s, err = tx.GetNodeIn(id, mCode, &slab); err {
					case nil:
						err = uniform("node", id, s.Rec.Label, mCode, s.Props())
						n++
						if slices.Contains(ms, id) {
							fixed++
						}
					case ErrNotFound:
						err = nil
					}
				}
				ends := 0
				if err == nil {
					var h NodeSnap
					if h, err = tx.GetNode(hub); err == nil {
						var endErr error
						err = tx.OutRels(h, func(r RelSnap) bool {
							s, err := tx.GetNodeIn(r.Rec.Dst, mCode, &slab)
							if err == nil {
								err = uniform("endpoint", s.ID, s.Rec.Label, mCode, s.Props())
							}
							if err == nil {
								if _, err = tx.GetNodeIn(r.Rec.Dst, nCode, &slab); err == ErrNotFound {
									err = nil
								} else if err == nil {
									err = fmt.Errorf("label-N fetch returned M endpoint %d", r.Rec.Dst)
								}
							}
							ends++
							endErr = err
							return err == nil
						})
						if err == nil {
							err = endErr
						}
					}
				}
				tx.Abort()
				quiet.RUnlock()
				if err != nil {
					fail(err)
				} else if fixed != objects || n > objects+1 || ends != 2*objects {
					fail(fmt.Errorf("label-M fetches returned %d nodes, %d of the %d fixed ones; %d hub endpoints, want %d",
						n, fixed, objects, ends, 2*objects))
				} else {
					fetches.Add(1)
				}
			}
		}()
		writers.Wait()
		stop.Store(true)
		readers.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if commits.Load() == 0 {
			t.Fatal("no update ever committed")
		}
		if reused.Load() == 0 {
			t.Fatal("no churned insert ever took a reclaimed slot")
		}
		mirrorAgrees(t, e)
		t.Logf("%d updates committed and %d reclaimed slots reused under %d clean label scans, %d clean expansions and %d clean endpoint passes",
			commits.Load(), reused.Load(), scans.Load(), walks.Load(), fetches.Load())
	})
}
