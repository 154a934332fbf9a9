//go:build !crashmutate

package crashx

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/fsck"
	"poseidon/internal/index"
	"poseidon/internal/pmem"
)

// The explorer drives commits from one goroutine, so it never crashes a
// commit epoch that has followers parked behind its leader, nor the
// leadership hand-off between queued committers. This test does: real
// concurrent committers, a power failure at a random device event, and
// the two things recovery owes them — an fsck-clean image in which every
// commit acknowledged before the failure is readable.

const (
	stressCommitters = 4
	stressOps        = 60
)

// stressAck is one committer's record of what it was promised: the nodes
// whose insert was acknowledged, and per owned node the last acknowledged
// value of property "v" (values only grow, so recovery must show at least
// that).
type stressAck struct {
	inserted []uint64
	value    map[uint64]int64
}

func TestCrashUnderStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for trial := 0; trial < 8; trial++ {
			t.Run(fmt.Sprintf("shards=%d/trial=%d", shards, trial), func(t *testing.T) {
				crashUnderStress(t, shards, int64(trial)*7919+int64(shards))
			})
		}
	}
}

func crashUnderStress(t *testing.T, shards int, seed int64) {
	before := runtime.NumGoroutine()
	cfg := core.Config{
		Mode: core.PMem, PoolSize: 16 << 20, Shards: shards,
		Profile: &pmem.Profile{}, // latency model off: this is about ordering
	}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := e.Device()
	if err := e.CreateIndex("P", "v", index.Hybrid); err != nil {
		t.Fatal(err)
	}

	// Every committer owns one node per shard, so its transactions never
	// conflict with another committer's and every commit is expected to
	// succeed — what they share is the shard queues, locks and lanes.
	acks := make([]stressAck, stressCommitters)
	owned := make([][]uint64, stressCommitters)
	for c := range owned {
		acks[c].value = map[uint64]int64{}
		seen := map[int]bool{}
		for len(seen) < shards {
			tx := e.Begin()
			id, err := tx.CreateNode("P", map[string]any{"v": int64(0)})
			if err != nil {
				t.Fatal(err)
			}
			if s := e.ShardOfNode(id); seen[s] {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			seen[e.ShardOfNode(id)] = true
			owned[c] = append(owned[c], id)
			acks[c].value[id] = 0
		}
	}

	// A dry run of this workload issues a few thousand events per
	// committer; the window below always lands inside it.
	k := dev.ArmCrashRandom(pmem.EvAll, seed, 4000)
	var wg sync.WaitGroup
	for c := 0; c < stressCommitters; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*pmem.InjectedCrash); !ok {
						panic(r)
					}
				}
			}()
			stressCommitter(e, owned[c], &acks[c])
		}()
	}
	wg.Wait()
	if _, fired := dev.DisarmCrash(); !fired {
		t.Fatalf("crash armed at event %d never fired", k)
	}
	epochs, members, _ := e.GroupCommitStats()
	t.Logf("crash at event %d: %d transactions committed in %d epochs", k, members, epochs)

	// Close the live engine before reopening: the pool registry is keyed
	// by UUID and closing after Reopen would deregister the new pool.
	e.Close()
	dev.Crash()
	e2, err := core.Reopen(dev, cfg)
	if err != nil {
		t.Fatalf("crash at event %d: reopen: %v", k, err)
	}
	if rep := fsck.Check(e2); !rep.OK() {
		t.Errorf("crash at event %d: %s", k, rep)
	}
	tx := e2.Begin()
	for c, ack := range acks {
		for _, id := range ack.inserted {
			if _, err := tx.GetNode(id); err != nil {
				t.Errorf("crash at event %d: committer %d: acknowledged insert %d lost: %v", k, c, id, err)
			}
		}
		for id, want := range ack.value {
			snap, err := tx.GetNode(id)
			if err != nil {
				t.Errorf("crash at event %d: committer %d: node %d lost: %v", k, c, id, err)
				continue
			}
			key, _ := e2.Dict().Lookup("v")
			if got, ok := snap.Prop(uint32(key)); !ok || got.Int() < want {
				t.Errorf("crash at event %d: committer %d: node %d v = %v, acknowledged %d", k, c, id, got, want)
			}
		}
	}
	tx.Abort()
	e2.Close()

	// Every committer returned (wg) and nothing the engine started
	// outlives Close.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines before, %d after Close", before, n)
	}
}

// stressCommitter runs one committer's mix until the power fails: fresh
// single-shard inserts, updates of one owned node, and updates spanning
// every owned node (a cross-shard commit when the engine is sharded). An
// outcome counts as acknowledged only if Commit returned before the
// crash fired.
func stressCommitter(e *core.Engine, owned []uint64, ack *stressAck) {
	dev := e.Device()
	for i := 1; i <= stressOps && !dev.CrashFired(); i++ {
		tx := e.Begin()
		v := int64(i)
		var inserted uint64
		var touched []uint64
		var err error
		switch i % 3 {
		case 0:
			inserted, err = tx.CreateNode("P", map[string]any{"v": v})
		case 1:
			touched = owned[i%len(owned) : i%len(owned)+1]
		default:
			touched = owned
		}
		for _, id := range touched {
			if err == nil {
				err = tx.SetNodeProps(id, map[string]any{"v": v})
			}
		}
		if err != nil {
			tx.Abort()
			continue
		}
		if err := tx.Commit(); err != nil || dev.CrashFired() {
			continue
		}
		if touched == nil {
			ack.inserted = append(ack.inserted, inserted)
		}
		for _, id := range touched {
			ack.value[id] = v
		}
	}
}
