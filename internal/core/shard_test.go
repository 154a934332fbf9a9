package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Shard-boundary and cross-shard protocol coverage: the partition
// function at chunk limits, relationships spanning shards, commits whose
// lock sets span several shards, and a deadlock detector for the
// ascending lock-order discipline.

// newShardedEngine opens a DRAM engine with an explicit shard count.
func newShardedEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := Open(Config{Mode: DRAM, PoolSize: 64 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// nodePerShard creates one committed node in every shard by spinning
// transactions until each home shard has produced one.
func nodePerShard(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	return nodePerShardWith(t, e, map[string]any{"v": int64(0)})
}

func nodePerShardWith(t *testing.T, e *Engine, props map[string]any) []uint64 {
	t.Helper()
	ids := make([]uint64, e.Shards())
	seen := make([]bool, e.Shards())
	remaining := e.Shards()
	for tries := 0; remaining > 0 && tries < 10*e.Shards(); tries++ {
		tx := e.Begin()
		id := mustCreateNode(t, tx, "S", props)
		s := e.ShardOfNode(id)
		if seen[s] {
			tx.Abort()
			continue
		}
		mustCommit(t, tx)
		ids[s], seen[s] = id, true
		remaining--
	}
	if remaining > 0 {
		t.Fatalf("could not place a node in every shard: %v", seen)
	}
	return ids
}

func TestShardPartitionFunction(t *testing.T) {
	e := newShardedEngine(t, 4)
	cap_ := e.Nodes().ChunkCap()
	for _, tc := range []struct {
		id   uint64
		want int
	}{
		{0, 0},
		{cap_ - 1, 0},   // last slot of chunk 0
		{cap_, 1},       // first slot of chunk 1
		{2*cap_ - 1, 1}, // last slot of chunk 1
		{2 * cap_, 2},   //
		{4 * cap_, 0},   // chunk 4 wraps to shard 0
		{5*cap_ + 7, 1}, // mid-chunk, second wrap
		{7*cap_ - 1, 2}, // last slot of chunk 6
		{63 * cap_, 63 % 4},
	} {
		if got := e.ShardOfNode(tc.id); got != tc.want {
			t.Errorf("ShardOfNode(%d) = %d, want %d", tc.id, got, tc.want)
		}
		if got := e.Nodes().ShardOf(tc.id); got != tc.want {
			t.Errorf("nodes.ShardOf(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

func TestCrossShardRelationships(t *testing.T) {
	e := newShardedEngine(t, 4)
	ids := nodePerShard(t, e)

	// A relationship ring crossing every shard boundary: rel records live
	// in the shard of their source node.
	tx := e.Begin()
	for i := range ids {
		src, dst := ids[i], ids[(i+1)%len(ids)]
		if _, err := tx.CreateRel(src, dst, "next", map[string]any{"hop": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	read := e.Begin()
	defer read.Abort()
	for i, id := range ids {
		snap, err := read.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		out := read.NewOutRelIter(snap, 0)
		hops := 0
		for {
			ok, err := out.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			r := out.Rel()
			if r.Rec.Src != id {
				t.Errorf("shard %d: rel src = %d, want %d", i, r.Rec.Src, id)
			}
			if want := ids[(i+1)%len(ids)]; r.Rec.Dst != want {
				t.Errorf("shard %d: rel dst = %d, want %d", i, r.Rec.Dst, want)
			}
			if got := e.ShardOfRel(r.ID); got != e.ShardOfNode(id) {
				t.Errorf("rel %d placed in shard %d, want source shard %d", r.ID, got, e.ShardOfNode(id))
			}
			hops++
		}
		if hops != 1 {
			t.Errorf("shard %d: %d outgoing rels, want 1", i, hops)
		}
	}

	// Detach-delete a node whose rels live in other shards (the incoming
	// edge's record is in the predecessor's shard).
	del := e.Begin()
	if err := del.DetachDeleteNode(ids[2]); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, del)
	after := e.Begin()
	defer after.Abort()
	if _, err := after.GetNode(ids[2]); err != ErrNotFound {
		t.Errorf("deleted cross-shard node still visible: %v", err)
	}
	snap, err := after.GetNode(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	out := after.NewOutRelIter(snap, 0)
	if ok, _ := out.Next(); ok {
		t.Error("dangling cross-shard rel survived detach delete")
	}
}

func TestShardGrowthPastChunk(t *testing.T) {
	// One transaction inserts past its home shard's first chunk; the
	// ErrShardFull retry path must grow the table with a chunk owned by
	// the same shard and keep ids shard-consistent.
	e := newShardedEngine(t, 4)
	cap_ := int(e.Nodes().ChunkCap())
	tx := e.Begin()
	home := -1
	ids := make([]uint64, cap_+10)
	for i := range ids {
		ids[i] = mustCreateNode(t, tx, "G", nil)
		s := e.ShardOfNode(ids[i])
		if home == -1 {
			home = s
		} else if s != home {
			t.Fatalf("node %d placed in shard %d, want home shard %d", ids[i], s, home)
		}
	}
	mustCommit(t, tx)
	if got := e.NodeCount(); got != uint64(cap_+10) {
		t.Fatalf("node count = %d, want %d", got, cap_+10)
	}
}

func TestCrossShardCommitLockOrderStress(t *testing.T) {
	// Goroutines commit transactions whose write sets span random shard
	// subsets in random access order. If any code path acquired shard
	// commit locks outside the canonical ascending order, opposite-order
	// lock sets would deadlock; the watchdog turns that hang into a
	// failure with full stacks.
	e := newShardedEngine(t, 4)
	ids := nodePerShard(t, e)

	const goroutines = 8
	const txPerGo = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*104729 + 1))
			for i := 0; i < txPerGo; i++ {
				tx := e.Begin()
				// Touch 2-4 shard-resident nodes in random order.
				perm := rng.Perm(len(ids))[:2+rng.Intn(3)]
				ok := true
				for _, n := range perm {
					if err := tx.SetNodeProps(ids[n], map[string]any{"v": int64(g*1000 + i)}); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					tx.Abort()
					continue
				}
				tx.Commit() // conflict aborts are fine; hangs are not
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("probable shard commit-lock deadlock; all goroutine stacks:\n%s", buf[:n])
	}

	stats, cross := e.ShardStatsSnapshot()
	if cross == 0 {
		t.Error("stress run produced no cross-shard commits")
	}
	var commits uint64
	for _, s := range stats {
		commits += s.Commits
	}
	if commits == 0 {
		t.Error("stress run produced no commits")
	}
}

func TestShardStatsSnapshot(t *testing.T) {
	e := newShardedEngine(t, 4)
	ids := nodePerShard(t, e)
	tx := e.Begin()
	for _, id := range ids {
		if err := tx.SetNodeProps(id, map[string]any{"v": int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	stats, cross := e.ShardStatsSnapshot()
	if len(stats) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(stats))
	}
	if cross == 0 {
		t.Error("4-shard write commit not counted as cross-shard")
	}
	for s, st := range stats {
		if st.Commits == 0 {
			t.Errorf("shard %d saw no commits", s)
		}
		if st.HomeInserts == 0 {
			t.Errorf("shard %d saw no op-time inserts", s)
		}
	}
}

// TestSingleShardMatchesUnsharded pins the compatibility contract: a
// Shards=1 engine behaves like the pre-sharding engine (one commit lock,
// built-in undo log, chunk 0 allocation order).
func TestSingleShardMatchesUnsharded(t *testing.T) {
	e := newShardedEngine(t, 1)
	tx := e.Begin()
	var first uint64
	for i := 0; i < 10; i++ {
		id := mustCreateNode(t, tx, "U", nil)
		if i == 0 {
			first = id
		}
	}
	mustCommit(t, tx)
	if first != 0 {
		t.Errorf("first id = %d, want 0 (dense allocation from chunk 0)", first)
	}
	if got := e.Shards(); got != 1 {
		t.Errorf("Shards() = %d, want 1", got)
	}
	_, cross := e.ShardStatsSnapshot()
	if cross != 0 {
		t.Errorf("single-shard engine recorded %d cross-shard commits", cross)
	}
}
