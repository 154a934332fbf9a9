//go:build crashmutate

package crashx

import (
	"context"
	"testing"
)

// Mutation-validation of the insert's durability: an insert sets its
// slot's occupancy bit at op time in the CPU view alone, and only the
// inserting commit makes it durable, by snapshotting the bit's word and
// flushing it before the commit point. Under the crashmutate tag with
// POSEIDON_MUTATE=insertbit the commit leaves that word out of its undo
// ranges (internal/core, mutateInsertBit), so a committed record's bit
// never reaches media and a crash after the commit loses the record
// while its endpoints still link to it. The IU explorer MUST catch this:
// it is the proof that its clean sweeps over the unfenced op-time insert
// mean something.

func TestMutationCaughtInsertBit(t *testing.T) {
	t.Setenv("POSEIDON_MUTATE", "insertbit")
	res, err := Explore(context.Background(), Options{
		Persons: 8,
		Ops:     4,
		Seed:    7,
		// Every crash point after the first committed insert can expose
		// the lost bit, but the first op's events are mostly flushes of
		// fresh chunks: sample the whole run instead of its prefix.
		Random: 60,
		Progress: func(format string, args ...any) {
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("planted uncovered-insert-bit mutation not detected over %d crash points", res.Points)
	}
	first := res.Violations[0]
	t.Logf("mutation caught: %s", first)

	// The schedule ID must reproduce the violation from scratch.
	v, err := Replay(context.Background(), first.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatalf("schedule %s did not reproduce its violation", first.Schedule)
	}
}
