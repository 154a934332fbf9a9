package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"poseidon/internal/pmem"
)

func newGroupEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := Open(Config{Mode: PMem, PoolSize: 64 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestGroupCommitBasic(t *testing.T) {
	e := newGroupEngine(t, 1)
	tx := e.Begin()
	id := mustCreateNode(t, tx, "Person", map[string]any{"name": "alice"})
	mustCommit(t, tx)

	if got := nodeProps(t, e, id)["name"]; got != "alice" {
		t.Fatalf("name = %v", got)
	}
	epochs, members, _ := e.GroupCommitStats()
	if epochs != 1 || members != 1 {
		t.Fatalf("stats = (%d epochs, %d members), want (1, 1)", epochs, members)
	}
}

// TestGroupCommitConcurrent commits from many goroutines; every acked
// transaction must be visible, and the epoch accounting must add up.
func TestGroupCommitConcurrent(t *testing.T) {
	const writers, txPerWriter = 8, 20
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newGroupEngine(t, shards)
			var wg sync.WaitGroup
			ids := make([][]uint64, writers)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < txPerWriter; i++ {
						tx := e.Begin()
						id, err := tx.CreateNode("W", map[string]any{"w": int64(w), "i": int64(i)})
						if err != nil {
							t.Error(err)
							return
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("writer %d commit %d: %v", w, i, err)
							return
						}
						ids[w] = append(ids[w], id)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for w, list := range ids {
				for i, id := range list {
					props := nodeProps(t, e, id)
					if props["w"] != int64(w) || props["i"] != int64(i) {
						t.Fatalf("node %d props = %v, want w=%d i=%d", id, props, w, i)
					}
				}
			}
			epochs, members, _ := e.GroupCommitStats()
			if members != writers*txPerWriter {
				t.Fatalf("members = %d, want %d", members, writers*txPerWriter)
			}
			if epochs == 0 || epochs > members {
				t.Fatalf("epochs = %d out of range (members %d)", epochs, members)
			}
		})
	}
}

// TestCommitBatchGroupsPerShard drives the deterministic batch entry
// point and checks results, visibility and epoch packing.
func TestCommitBatchGroupsPerShard(t *testing.T) {
	e := newGroupEngine(t, 4)
	const n = 24
	txs := make([]*Tx, n)
	ids := make([]uint64, n)
	for i := range txs {
		txs[i] = e.Begin()
		ids[i] = mustCreateNode(t, txs[i], "B", map[string]any{"i": int64(i)})
	}
	for i, err := range e.CommitBatch(txs) {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	for i, id := range ids {
		if got := nodeProps(t, e, id)["i"]; got != int64(i) {
			t.Fatalf("node %d i = %v, want %d", id, got, i)
		}
	}
	epochs, members, _ := e.GroupCommitStats()
	if members != n {
		t.Fatalf("members = %d, want %d", members, n)
	}
	// One epoch per shard that owned at least one transaction.
	if epochs == 0 || epochs > 4 {
		t.Fatalf("epochs = %d, want 1..4", epochs)
	}

	// Re-committing and re-batching finished transactions must fail fast.
	for i, err := range e.CommitBatch(txs[:2]) {
		if err != ErrTxDone {
			t.Fatalf("recommit %d = %v, want ErrTxDone", i, err)
		}
	}
}

// TestGroupCommitFenceReduction pins the commit pipeline's fence bill as
// absolutes: a small insert committed alone (an epoch of one) pays no
// more drains than the per-transaction path it replaced, and as one of
// 16 epoch members it pays well under one.
func TestGroupCommitFenceReduction(t *testing.T) {
	const n = 16
	perTxn := func(batch bool) float64 {
		e := newGroupEngine(t, 1)
		// Warm up allocator chunks so growth costs don't pollute the measure.
		w := e.Begin()
		mustCreateNode(t, w, "W", map[string]any{"v": int64(0)})
		mustCommit(t, w)

		txs := make([]*Tx, n)
		for i := range txs {
			txs[i] = e.Begin()
			mustCreateNode(t, txs[i], "N", map[string]any{"v": int64(i)})
		}
		before := e.Device().Stats.Snapshot()
		if batch {
			for i, err := range e.CommitBatch(txs) {
				if err != nil {
					t.Fatalf("tx %d: %v", i, err)
				}
			}
		} else {
			for _, tx := range txs {
				mustCommit(t, tx)
			}
		}
		drains := e.Device().Stats.Snapshot().Sub(before).Drains
		return float64(drains) / n
	}
	solo, grouped := perTxn(false), perTxn(true)
	t.Logf("drains per txn: epoch of one %.2f, epoch of %d %.2f", solo, n, grouped)
	// 5.00 is what the deleted per-transaction path paid here.
	if solo > 5 {
		t.Errorf("epoch of one pays %.2f drains/txn, more than the per-transaction path's 5.00", solo)
	}
	if grouped > 0.5 {
		t.Errorf("epoch of %d pays %.2f drains/txn, want <= 0.5", n, grouped)
	}
}

// TestGroupCommitLaneOverflowDegrades is the lane-sizing hazard
// regression: a full epoch whose undo images cannot fit the shard's
// lane must degrade into smaller groups, never abort its members.
func TestGroupCommitLaneOverflowDegrades(t *testing.T) {
	// An unsharded engine commits on the built-in log, whose capacity is
	// directly configurable — size it so a 32-transaction epoch of fat
	// property updates cannot fit.
	e, err := Open(Config{Mode: PMem, PoolSize: 64 << 20, Shards: 1, LogCap: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	const n = 32
	txs := make([]*Tx, n)
	ids := make([]uint64, n)
	props := map[string]any{}
	for k := 0; k < 8; k++ {
		props[fmt.Sprintf("k%d", k)] = int64(k)
	}
	for i := range txs {
		txs[i] = e.Begin()
		ids[i] = mustCreateNode(t, txs[i], "Fat", props)
	}
	for i, err := range e.CommitBatch(txs) {
		if err != nil {
			t.Fatalf("tx %d aborted under lane pressure: %v", i, err)
		}
	}
	_, members, splits := e.GroupCommitStats()
	if members != n {
		t.Fatalf("members = %d, want %d", members, n)
	}
	if splits == 0 {
		t.Fatalf("epoch was never split despite a %d-byte lane", 16<<10)
	}
	for i, id := range ids {
		if got := nodeProps(t, e, id)["k3"]; got != int64(3) {
			t.Fatalf("node %d (tx %d) lost props: k3 = %v", id, i, got)
		}
	}
}

// TestGroupCommitReservationFailureAborts exhausts the pool so the
// post-ErrShardFull property reservation inside persistGroup fails after
// the shard lock was already dropped. The members must abort with an
// error — regression: the generic error path unlocked the shard again
// (sync.Mutex unlock-of-unlocked panic) instead of honoring the
// locked=false state the failed reservation left behind.
func TestGroupCommitReservationFailureAborts(t *testing.T) {
	e, err := Open(Config{Mode: PMem, PoolSize: 8 << 20, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// Fat integer properties: commit-time property-chain writes burn
	// props-table slots ~an order of magnitude faster than node slots,
	// so the props shard hits ErrShardFull while the pool is too full to
	// grow it — the reservation failure under test.
	props := map[string]any{}
	for k := 0; k < 24; k++ {
		props[fmt.Sprintf("k%d", k)] = int64(k)
	}
	for round := 0; round < 8000; round++ {
		txs := make([]*Tx, 4)
		ok := true
		for i := range txs {
			txs[i] = e.Begin()
			if _, err := txs[i].CreateNode("Fat", props); err != nil {
				// Insert-time exhaustion: the create already failed, so
				// the commit path under test is unreachable this round.
				for _, tx := range txs[:i+1] {
					tx.Abort()
				}
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var failed bool
		for i, err := range e.CommitBatch(txs) {
			if err != nil {
				failed = true
				if r := txs[i].abortReason.Load(); r != uint32(AbortCommitFailed)+1 {
					t.Fatalf("tx %d abort reason = %d, want AbortCommitFailed", i, r)
				}
			}
		}
		if failed {
			// Surviving to here without a panic is the regression check;
			// the engine must also still serve reads and commits.
			rtx := e.Begin()
			if _, err := rtx.GetNode(1); err != nil && err != ErrNotFound {
				t.Fatalf("engine unusable after reservation failure: %v", err)
			}
			rtx.Abort()
			return
		}
	}
	t.Fatal("pool never exhausted — raise the fat-prop load")
}

// TestGroupCommitCancelledMember: a member whose context is cancelled
// aborts without poisoning the rest of its epoch.
func TestGroupCommitCancelledMember(t *testing.T) {
	e := newGroupEngine(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	live := e.Begin()
	liveID := mustCreateNode(t, live, "L", nil)
	dead := e.Begin()
	dead.WithContext(ctx)
	deadID, err := dead.CreateNode("D", nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	errs := e.CommitBatch([]*Tx{live, dead})
	if errs[0] != nil {
		t.Fatalf("live member: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("cancelled member committed")
	}
	if _, err := nodeSnap(t, e, liveID); err != nil {
		t.Fatalf("live node lost: %v", err)
	}
	if _, err := nodeSnap(t, e, deadID); err != ErrNotFound {
		t.Fatalf("cancelled node visible: err=%v", err)
	}
}

func nodeSnap(t *testing.T, e *Engine, id uint64) (NodeSnap, error) {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	return tx.GetNode(id)
}

// TestGroupCommitDurabilityLinearizable is the acked-implies-durable
// property: under random crash injection, any transaction whose Commit
// returned nil before the crash event fired must be present after
// recovery. Commits that return while a crash is already in flight are
// not acked (the device freezes media at the injection point).
func TestGroupCommitDurabilityLinearizable(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			e, err := Open(Config{Mode: PMem, PoolSize: 64 << 20, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			dev := e.Device()

			// A few guaranteed-durable transactions before arming.
			var acked []uint64
			for i := 0; i < 3; i++ {
				tx := e.Begin()
				acked = append(acked, mustCreateNode(t, tx, "pre", map[string]any{"i": int64(i)}))
				mustCommit(t, tx)
			}

			dev.ArmCrash(pmem.EvAll, 1+uint64(rng.Intn(400)))
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(*pmem.InjectedCrash); !ok {
							panic(r)
						}
					}
				}()
				for i := 0; i < 40; i++ {
					tx := e.Begin()
					id, err := tx.CreateNode("n", map[string]any{"i": int64(i)})
					if err != nil {
						return
					}
					if err := tx.Commit(); err != nil {
						return
					}
					if !dev.CrashFired() {
						// Acked strictly before the crash point: must survive.
						acked = append(acked, id)
					}
				}
			}()
			if !dev.CrashFired() {
				// Crash point beyond the workload: nothing to verify.
				dev.DisarmCrash()
				return
			}
			dev.Crash()
			e2, err := Reopen(dev, Config{Mode: PMem, Shards: 1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e2.Close()
			tx := e2.Begin()
			defer tx.Abort()
			for _, id := range acked {
				if _, err := tx.GetNode(id); err != nil {
					t.Fatalf("acked node %d lost after crash: %v", id, err)
				}
			}
		})
	}
}
