//go:build !race

package pmemobj

import "testing"

// TestTxScratchAllocsIndependentOfSnapshots pins what a warm transaction
// allocates: the Tx, nothing per snapshot. The touched list, the coverage
// index and the copy buffer belong to the log and were grown by an earlier
// transaction. (The race detector's instrumentation allocates; the budget
// is checked in the plain test job.)
func TestTxScratchAllocsIndependentOfSnapshots(t *testing.T) {
	_, p, area, lane := newLanePool(t)
	ranges := make([]Range, 8)
	for i := range ranges {
		ranges[i] = Range{area + uint64(32+i)*128, 72}
	}
	allocs := func(lane, k int) float64 {
		return testing.AllocsPerRun(50, func() {
			err := p.RunTxLane(lane, func(tx *Tx) error {
				for i := 0; i < k; i++ {
					if err := tx.Snapshot(area+uint64(i)*128, 72); err != nil {
						return err
					}
				}
				tx.NoteWrite(area, 8)
				return tx.SnapshotAll(ranges)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, l := range []int{0, lane} {
		allocs(l, 32) // warm: grow the log's scratch once
		one, many := allocs(l, 1), allocs(l, 32)
		if one != 1 || many != 1 {
			t.Errorf("lane %d: a warm transaction allocates %.0f times with 1 snapshot and %.0f with 32, want 1 (the Tx) both times", l, one, many)
		}
	}
}
