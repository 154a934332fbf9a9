//go:build !crashmutate

package crashx

import (
	"context"
	"testing"

	"poseidon/internal/pmem"
)

// The central claim of the harness: for every crash point in the LDBC IU
// mix, recovery yields an image that passes every fsck invariant. A
// violation here is a durability bug (or an fsck bug), never flake — the
// whole schedule is deterministic.

func TestExploreLDBCSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short")
	}
	res, err := Explore(context.Background(), Options{
		Persons: 8,
		Ops:     5,
		Seed:    7,
		Random:  120,
		Progress: func(format string, args ...any) {
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEvents == 0 {
		t.Fatal("dry run counted no crashable events")
	}
	if res.Points == 0 {
		t.Fatal("no crash points explored")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestExploreShardedSmoke reruns the smoke sweep with a 4-way sharded
// core: the workload commits through per-shard undo-log lanes and every
// crash point must still recover to an fsck-clean image — including
// crashes landing inside a cross-shard commit's lane transaction.
func TestExploreShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short")
	}
	res, err := Explore(context.Background(), Options{
		Persons: 8,
		Ops:     5,
		Seed:    7,
		Random:  80,
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 {
		t.Fatal("no crash points explored")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

func TestExploreExhaustivePrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short")
	}
	// The first events of the first commit cover the pre-flush and
	// mid-undo-log crash classes; enumerate them densely.
	res, err := Explore(context.Background(), Options{
		Persons:   8,
		Ops:       3,
		Seed:      3,
		MaxPoints: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 80 {
		t.Fatalf("explored %d points, want 80", res.Points)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

func TestScheduleIDRoundTrip(t *testing.T) {
	in := ScheduleID{Persons: 16, Seed: -3, Ops: 30, Mask: pmem.EvFlush | pmem.EvDrain, K: 17}
	out, err := ParseScheduleID(in.String())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if _, err := ParseScheduleID("persons=1,bogus"); err == nil {
		t.Error("malformed schedule accepted")
	}
	if _, err := ParseScheduleID("persons=1,seed=2"); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestReplayCleanSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("replay opens a full engine; skipped in -short")
	}
	v, err := Replay(context.Background(), ScheduleID{
		Persons: 8, Seed: 7, Ops: 2, Mask: pmem.EvFlush | pmem.EvDrain, K: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("unexpected violation: %s", v)
	}
}

// A ScheduleID names a crash point by its ordinal among the masked events,
// so every IU-mix ID minted so far replays only while the default path
// issues the same stores, flushes and drains in the same order. The totals
// of the CI sweep's workload (-persons 16 -ops 30 -seed 1) are pinned as
// measured before the index delta layer was removed (PR 20); a change that
// moves them re-addresses every recorded IU schedule and must say so.
func TestIUMixEventCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a full engine; skipped in -short")
	}
	want := map[int]map[pmem.CrashEvents]uint64{
		1: {pmem.EvStore: 1805, pmem.EvFlush: 1179, pmem.EvDrain: 354},
		4: {pmem.EvStore: 1931, pmem.EvFlush: 10405, pmem.EvDrain: 371},
	}
	for shards, counts := range want {
		opts := Options{Persons: 16, Ops: 30, Seed: 1, Shards: shards}
		opts.fill()
		h, err := newHarness(opts)
		if err != nil {
			t.Fatal(err)
		}
		for mask, n := range counts {
			h.opts.Mask = mask
			out, err := h.runOnce(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.events != n {
				t.Errorf("shards=%d: IU mix generates %d %s events, pinned %d", shards, out.events, mask, n)
			}
		}
	}
}
