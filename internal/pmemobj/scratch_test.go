package pmemobj

import (
	"errors"
	"math/rand"
	"testing"

	"poseidon/internal/pmem"
)

// linearCovered is the scan over every touched range that the coverage
// index replaced, kept as the reference.
func linearCovered(touched []txRange, off, n uint64) bool {
	for _, r := range touched {
		if off >= r.off && off+n <= r.off+r.n {
			return true
		}
	}
	return false
}

// checkCoverageIndex asserts the index invariant: maximal is an antichain
// of touched ranges sorted by offset (hence by end) that between them
// contain every touched range.
func checkCoverageIndex(t *testing.T, s *txScratch) {
	t.Helper()
	for i, m := range s.maximal {
		if !linearCovered(s.touched, m.off, m.n) {
			t.Fatalf("maximal[%d] = %v was never touched", i, m)
		}
		if i > 0 && (s.maximal[i-1].off >= m.off || s.maximal[i-1].off+s.maximal[i-1].n >= m.off+m.n) {
			t.Fatalf("maximal[%d] = %v does not follow %v in both offset and end", i, m, s.maximal[i-1])
		}
	}
	for _, r := range s.touched {
		if !linearCovered(s.maximal, r.off, r.n) {
			t.Fatalf("touched %v is contained in no maximal range %v", r, s.maximal)
		}
	}
}

// TestCoverageIndexMatchesLinearScan drives random Snapshot, SnapshotAll
// and NoteWrite sequences whose ranges nest, overlap, abut and repeat, and
// requires the binary search to agree with the linear scan on every
// query. The skip decisions of the linear scan also predict the undo log —
// which entries, in which order, how many bytes — and the log on the
// device must be exactly that; rolling it back must restore the area.
func TestCoverageIndexMatchesLinearScan(t *testing.T) {
	const areaWords = 512
	errAbort := errors.New("abort")
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := pmem.New(pmem.Config{Name: "t", Size: 1 << 20, Persistent: true})
		p, err := Create(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		area, err := p.Alloc(areaWords * 8)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]uint64, areaWords)
		for i := range orig {
			orig[i] = rng.Uint64()
		}
		dev.WriteWords(area, orig)
		dev.Persist(area, areaWords*8)

		// pick returns a range inside the area: fresh, or derived from an
		// earlier one so that containment in both directions, partial
		// overlap, adjacency and exact repeats all occur often.
		var seen []txRange
		pick := func() (uint64, uint64) {
			w, n := uint64(rng.Intn(areaWords-40)), uint64(1+rng.Intn(200))
			if len(seen) > 0 && rng.Intn(3) > 0 {
				r := seen[rng.Intn(len(seen))]
				rw, rn := (r.off-area)/8, r.n
				switch rng.Intn(6) {
				case 0: // exact repeat
					w, n = rw, rn
				case 1: // nested inside
					w, n = rw+uint64(rng.Intn(int(rn/8+1))), 1+uint64(rng.Intn(int(rn)))
					n = min(n, r.off+rn-(area+w*8))
				case 2: // superset
					w = rw - min(rw, uint64(rng.Intn(4)))
					n = (rw-w)*8 + rn + uint64(rng.Intn(64))
				case 3: // adjacent after
					w = rw + (rn+7)/8
				case 4: // adjacent before
					w = rw - min(rw, (n+7)/8)
				case 5: // partial overlap
					w = rw + uint64(rng.Intn(int(rn/8+1)))
				}
			}
			w = min(w, areaWords-1)
			n = max(1, min(n, (areaWords-w)*8))
			seen = append(seen, txRange{area + w*8, n})
			return area + w*8, n
		}

		err = p.RunTx(func(tx *Tx) error {
			var wantLog []txRange
			s := tx.s
			query := func(off, n uint64) bool {
				t.Helper()
				want := linearCovered(s.touched, off, n)
				if got := tx.covered(off, n); got != want {
					t.Fatalf("seed %d: covered(%d,%d) = %v, linear scan says %v\ntouched %v\nmaximal %v",
						seed, off-area, n, got, want, s.touched, s.maximal)
				}
				return want
			}
			for op := 0; op < 120; op++ {
				switch rng.Intn(5) {
				case 0:
					off, n := pick()
					if rng.Intn(8) == 0 {
						n = 0
					}
					tx.NoteWrite(off, n)
				case 1:
					batch := make([]Range, 1+rng.Intn(6))
					var keep []txRange
					for i := range batch {
						off, n := pick()
						batch[i] = Range{off, n}
						if !query(off, n) && !linearCovered(keep, off, n) {
							keep = append(keep, txRange{off, n})
						}
					}
					if err := tx.SnapshotAll(batch); err != nil {
						return err
					}
					wantLog = append(wantLog, keep...)
				default:
					off, n := pick()
					if !query(off, n) {
						wantLog = append(wantLog, txRange{off, n})
					}
					if err := tx.Snapshot(off, n); err != nil {
						return err
					}
					// Modify what the log can restore; a range skipped
					// under a NoteWrite has no undo image.
					if linearCovered(wantLog, off, n) {
						for w := off; w < off+n; w += 8 {
							dev.WriteU64(w, rng.Uint64())
						}
					}
				}
				for i := 0; i < 4; i++ {
					query(pick())
				}
				checkCoverageIndex(t, s)
			}
			if got := dev.ReadU64(p.logOff); got != uint64(len(wantLog)) {
				t.Fatalf("seed %d: undo log holds %d entries, the linear scan would have logged %d", seed, got, len(wantLog))
			}
			pos := p.logOff + logDataStart
			for i, want := range wantLog {
				if got := (txRange{dev.ReadU64(pos), dev.ReadU64(pos + 8)}); got != want {
					t.Fatalf("seed %d: undo entry %d covers %v, the linear scan would have logged %v", seed, i, got, want)
				}
				pos += SnapshotCost(want.n)
			}
			if pos != tx.logEnd {
				t.Fatalf("seed %d: undo log ends at %d, want %d", seed, tx.logEnd, pos)
			}
			return errAbort
		})
		if !errors.Is(err, errAbort) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := make([]uint64, areaWords)
		dev.ReadWords(area, got)
		for i := range got {
			if got[i] != orig[i] {
				t.Fatalf("seed %d: word %d = %#x after rollback, want %#x", seed, i, got[i], orig[i])
			}
		}
		p.Close()
	}
}

// newLanePool returns a fresh pool with an 8 KiB data area and one attached
// 16 KiB undo-log lane.
func newLanePool(t *testing.T) (dev *pmem.Device, p *Pool, area uint64, lane int) {
	t.Helper()
	dev = pmem.New(pmem.Config{Name: "t", Size: 1 << 20, Persistent: true})
	p, err := Create(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	area, _ = p.Alloc(8 << 10)
	laneLog, _ := p.Alloc(16 << 10)
	if lane, err = p.AttachLane(laneLog, 16<<10); err != nil {
		t.Fatal(err)
	}
	return dev, p, area, lane
}

// TestTxScratchStartsEmpty: the scratch a log lends its transactions never
// carries ranges from one into the next, however the first one ended. The
// successor is an empty transaction, so its commit must flush exactly one
// line — the log's entry count — on the built-in log and on a lane alike.
func TestTxScratchStartsEmpty(t *testing.T) {
	dev, p, area, lane := newLanePool(t)
	dirty := func(tx *Tx) {
		for i := uint64(0); i < 4; i++ {
			if err := tx.Snapshot(area+i*512, 64); err != nil {
				t.Fatal(err)
			}
			dev.WriteU64(area+i*512, i+1)
		}
		tx.NoteWrite(area+2048, 1024)
	}
	boom := errors.New("boom")
	predecessors := []struct {
		name string
		run  func(lane int)
	}{
		{"commit", func(lane int) {
			_ = p.RunTxLane(lane, func(tx *Tx) error { dirty(tx); return nil })
		}},
		{"error", func(lane int) {
			_ = p.RunTxLane(lane, func(tx *Tx) error { dirty(tx); return boom })
		}},
		{"panic", func(lane int) {
			defer func() { _ = recover() }()
			_ = p.RunTxLane(lane, func(tx *Tx) error { dirty(tx); panic(boom) })
		}},
		{"abandon", func(lane int) {
			if lane != 0 {
				return // Begin runs on the built-in log only
			}
			tx := p.Begin()
			dirty(tx)
			tx.Abandon()
		}},
	}
	for _, l := range []int{0, lane} {
		for _, pre := range predecessors {
			pre.run(l)
			before := dev.Stats.Snapshot().LineFlushes
			if err := p.RunTxLane(l, func(tx *Tx) error {
				if n := len(tx.s.touched) + len(tx.s.maximal); n != 0 {
					t.Errorf("lane %d after %s: transaction starts with %d inherited ranges", l, pre.name, n)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := dev.Stats.Snapshot().LineFlushes - before; got != 1 {
				t.Errorf("lane %d after %s: an empty transaction flushed %d lines, want 1", l, pre.name, got)
			}
		}
	}
}
