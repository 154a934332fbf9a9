//go:build !crashmutate

package crashx

import (
	"context"
	"testing"

	"poseidon/internal/pmem"
)

// The ingest mix drives the write-optimized commit stack — a bulk base
// load and group-commit epochs through CommitBatch — so its crash points
// land before and after the epoch leader's group fence. Every sampled
// point must still recover to an fsck-clean image.

func TestExploreIngestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short")
	}
	res, err := Explore(context.Background(), Options{
		Persons: 8,
		Ops:     8,
		Seed:    7,
		Random:  120,
		Mix:     MixIngest,
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

// TestExploreIngestShardedSmoke reruns the ingest sweep with a 4-way
// sharded core: epochs form per shard, so a crash can land between one
// shard's epoch commit and the next shard's.
func TestExploreIngestShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short")
	}
	res, err := Explore(context.Background(), Options{
		Persons: 8,
		Ops:     8,
		Seed:    7,
		Random:  80,
		Shards:  4,
		Mix:     MixIngest,
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

// TestExploreIngestEpochPrefix enumerates the first crash points densely:
// they cover the first group-commit epochs — the undo-lane batch append,
// the leader's single group fence, and the per-member applies after it.
func TestExploreIngestEpochPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is seconds-long; skipped in -short")
	}
	res, err := Explore(context.Background(), Options{
		Persons:   8,
		Ops:       6,
		Seed:      3,
		MaxPoints: 80,
		Mix:       MixIngest,
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

func TestScheduleIDRoundTripIngest(t *testing.T) {
	in := ScheduleID{Persons: 8, Seed: 7, Ops: 8, Mask: pmem.EvFlush | pmem.EvDrain, K: 17, Mix: MixIngest}
	out, err := ParseScheduleID(in.String())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	// Pre-ingest schedule IDs carry no mix field and stay parseable.
	legacy := ScheduleID{Persons: 16, Seed: 1, Ops: 20, Mask: pmem.EvFlush, K: 3}
	if out, err := ParseScheduleID(legacy.String()); err != nil || out != legacy {
		t.Fatalf("legacy round trip: %+v, %v", out, err)
	}
	if _, err := ParseScheduleID("persons=1,seed=2,ops=3,mask=flush,k=1,mix=bogus"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestExploreUnknownMix(t *testing.T) {
	if _, err := Explore(context.Background(), Options{Mix: "bogus"}); err == nil {
		t.Fatal("unknown mix accepted")
	}
}
