package core

import (
	"sync"
	"testing"
)

// TestRTSTableConcurrentBumps: readers raise read timestamps from several
// goroutines at once, over ids that grow the block directory while others
// read it; every id ends at the largest timestamp bumped into it, a get
// never sees a timestamp go down, and forget clears one id only.
func TestRTSTableConcurrentBumps(t *testing.T) {
	const workers, ids, rounds = 4, 5 * wordBlockLen, 3
	tbl := new(rtsTable)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Walk the ids from the far end first, so the directory
				// grows under readers of the near blocks.
				for i := ids - 1; i >= 0; i -= 7 {
					id := uint64(i)
					ts := uint64(r*workers + w + 1)
					before := tbl.get(id)
					tbl.bump(id, ts)
					if after := tbl.get(id); after < before || after < ts {
						t.Errorf("id %d: rts %d after bumping %d over %d", id, after, ts, before)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := ids - 1; i >= 0; i -= 7 {
		if got, want := tbl.get(uint64(i)), uint64(rounds*workers); got != want {
			t.Fatalf("id %d: rts %d, want %d", i, got, want)
		}
	}
	tbl.forget(ids - 1)
	if got := tbl.get(ids - 1); got != 0 {
		t.Errorf("forgotten id reads rts %d", got)
	}
	if got := tbl.get(ids - 8); got != rounds*workers {
		t.Errorf("forget cleared a neighbour: rts %d", got)
	}
	if got := tbl.get(100 * wordBlockLen); got != 0 {
		t.Errorf("an id never read has rts %d", got)
	}
}
