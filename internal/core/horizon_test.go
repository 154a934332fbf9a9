package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// The horizon rule: a commit retains the version it supersedes in a DRAM
// chain only while an active transaction outside its epoch is older than
// it, and GC drops the version at the first transaction end after the
// last such reader is gone. Dirty versions never enter a chain.

func newHorizonEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := Open(Config{Mode: DRAM, PoolSize: 64 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// versionState counts the version chains of every chain table and the
// retained-version entries of every shard's GC list.
func versionState(e *Engine) (chains, retained int) {
	for i := range e.shards {
		sh := &e.shards[i]
		for _, t := range sh.chains {
			for j := range t.shards {
				cs := &t.shards[j]
				cs.mu.Lock()
				chains += len(cs.m)
				cs.mu.Unlock()
			}
		}
		sh.gcMu.Lock()
		retained += len(sh.retained)
		sh.gcMu.Unlock()
	}
	return chains, retained
}

func wantVersionState(t *testing.T, e *Engine, chains, retained int, when string) {
	t.Helper()
	if c, r := versionState(e); c != chains || r != retained {
		t.Errorf("%s: %d chains and %d retained versions, want %d and %d", when, c, r, chains, retained)
	}
}

func propInt(t *testing.T, tx *Tx, id uint64, key string) int64 {
	t.Helper()
	snap, err := tx.GetNode(id)
	if err != nil {
		t.Fatalf("GetNode(%d) in txn %d: %v", id, tx.ID(), err)
	}
	v, _ := snap.Prop(labelCode(t, tx.e, key))
	return v.Int()
}

func TestHorizonNoOlderReaderRetainsNothing(t *testing.T) {
	e := newHorizonEngine(t, 0)
	setup := e.Begin()
	a := mustCreateNode(t, setup, "P", map[string]any{"v": int64(1)})
	b := mustCreateNode(t, setup, "P", nil)
	mustCommit(t, setup)

	tx := e.Begin()
	if err := tx.SetNodeProps(a, map[string]any{"v": int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.CreateRel(a, b, "KNOWS", map[string]any{"w": int64(3)}); err != nil {
		t.Fatal(err)
	}
	wantVersionState(t, e, 0, 0, "dirty versions before commit")
	mustCommit(t, tx)
	wantVersionState(t, e, 0, 0, "after a commit with no older reader")
	for i := range e.shards {
		if n := e.shards[i].gcPending.Load(); n != 0 {
			t.Errorf("shard %d: %d pending GC entries, want 0", i, n)
		}
	}
	if got := nodeProps(t, e, a)["v"]; got != int64(2) {
		t.Errorf("v = %v after commit, want 2", got)
	}
}

func TestHorizonOlderReaderKeepsItsVersion(t *testing.T) {
	e := newHorizonEngine(t, 0)
	setup := e.Begin()
	a := mustCreateNode(t, setup, "P", map[string]any{"v": int64(1)})
	mustCommit(t, setup)

	reader := e.Begin()
	w := e.Begin()
	if err := w.SetNodeProps(a, map[string]any{"v": int64(2)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)
	wantVersionState(t, e, 1, 1, "after a commit with an older reader")
	if got := propInt(t, reader, a, "v"); got != 1 {
		t.Errorf("older reader sees v=%d, want the superseded 1", got)
	}

	// Other transactions ending leave the version alone while the reader
	// is active.
	other := e.Begin()
	if got := propInt(t, other, a, "v"); got != 2 {
		t.Errorf("newer reader sees v=%d, want 2", got)
	}
	mustCommit(t, other)
	wantVersionState(t, e, 1, 1, "after a newer transaction ended")
	if got := propInt(t, reader, a, "v"); got != 1 {
		t.Errorf("older reader sees v=%d after another transaction ended, want 1", got)
	}

	// The reader's own end is the first transaction end after it.
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
	wantVersionState(t, e, 0, 0, "after the older reader ended")
}

// TestHorizonEpochMix: in one epoch, a non-member reader younger than one
// member and older than the other gets a version retained for the
// younger member only.
func TestHorizonEpochMix(t *testing.T) {
	e := newHorizonEngine(t, 1)
	setup := e.Begin()
	x := mustCreateNode(t, setup, "P", map[string]any{"v": int64(10)})
	y := mustCreateNode(t, setup, "P", map[string]any{"v": int64(20)})
	mustCommit(t, setup)

	older := e.Begin()
	reader := e.Begin()
	younger := e.Begin()
	if err := older.SetNodeProps(x, map[string]any{"v": int64(11)}); err != nil {
		t.Fatal(err)
	}
	if err := younger.SetNodeProps(y, map[string]any{"v": int64(21)}); err != nil {
		t.Fatal(err)
	}
	epochs, members, _ := e.GroupCommitStats()
	for i, err := range e.CommitBatch([]*Tx{younger, older}) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if ep, m, _ := e.GroupCommitStats(); ep-epochs != 1 || m-members != 2 {
		t.Fatalf("the batch ran %d epochs of %d members, want one of 2", ep-epochs, m-members)
	}

	wantVersionState(t, e, 1, 1, "after the epoch")
	sh := &e.shards[0]
	sh.gcMu.Lock()
	got := append([]retainedVer(nil), sh.retained...)
	sh.gcMu.Unlock()
	if want := (retainedVer{objKey{kindNode, y}, younger.ID()}); len(got) != 1 || got[0] != want {
		t.Errorf("retained %v, want only %v (the younger member's superseded y)", got, want)
	}
	if v := propInt(t, reader, y, "v"); v != 20 {
		t.Errorf("reader sees y=%d, want the superseded 20", v)
	}
	if v := propInt(t, reader, x, "v"); v != 11 {
		t.Errorf("reader sees x=%d, want the older member's 11", v)
	}
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
	wantVersionState(t, e, 0, 0, "after the reader ended")

	// Members do not count as older readers of each other: they have
	// finished reading.
	first, second := e.Begin(), e.Begin()
	if err := first.SetNodeProps(x, map[string]any{"v": int64(12)}); err != nil {
		t.Fatal(err)
	}
	if err := second.SetNodeProps(y, map[string]any{"v": int64(22)}); err != nil {
		t.Fatal(err)
	}
	for i, err := range e.CommitBatch([]*Tx{second, first}) {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	wantVersionState(t, e, 0, 0, "after an epoch with no outside reader")
}

// TestHorizonCrossShardReader: the older reader is registered in the
// active set of another shard than the one whose commit lock the writer
// holds.
func TestHorizonCrossShardReader(t *testing.T) {
	e := newHorizonEngine(t, 4)
	setup := e.Begin()
	a := mustCreateNode(t, setup, "P", map[string]any{"v": int64(1)})
	mustCommit(t, setup)

	var reader *Tx
	for reader == nil {
		tx := e.Begin()
		if e.homeShard(tx.ID()) != e.ShardOfNode(a) {
			reader = tx
			break
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	w := e.Begin()
	if err := w.SetNodeProps(a, map[string]any{"v": int64(2)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)
	wantVersionState(t, e, 1, 1, "after a commit with an older reader on another shard")
	if got := propInt(t, reader, a, "v"); got != 1 {
		t.Errorf("older reader (home shard %d, record shard %d) sees v=%d, want 1",
			e.homeShard(reader.ID()), e.ShardOfNode(a), got)
	}
	if err := reader.Abort(); err != nil {
		t.Fatal(err)
	}
	wantVersionState(t, e, 0, 0, "after the reader ended")
}

// TestHorizonConcurrentReaders: writers keep updating a few nodes while
// readers read them twice each; a reader that is not aborted sees the
// same value both times, and once everyone has finished no version is
// left behind.
func TestHorizonConcurrentReaders(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e := newHorizonEngine(t, shards)
		setup := e.Begin()
		ids := make([]uint64, 4)
		for i := range ids {
			ids[i] = mustCreateNode(t, setup, "P", map[string]any{"v": int64(0)})
		}
		mustCommit(t, setup)
		vKey := labelCode(t, e, "v")
		read := func(tx *Tx, id uint64) (int64, error) {
			snap, err := tx.GetNode(id)
			v, _ := snap.Prop(vKey)
			return v.Int(), err
		}

		const writers, readers, rounds = 2, 3, 150
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					tx := e.Begin()
					id := ids[(w+i)%len(ids)]
					v, err := read(tx, id)
					if err == nil {
						err = tx.SetNodeProps(id, map[string]any{"v": v + 1})
					}
					if err == nil {
						err = tx.Commit()
					}
					if err != nil && !errors.Is(err, ErrAborted) {
						t.Error(err)
						return
					}
				}
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					tx := e.Begin()
					id := ids[(r+i)%len(ids)]
					first, err := read(tx, id)
					if err == nil {
						runtime.Gosched()
						var again int64
						if again, err = read(tx, id); err == nil && again != first {
							t.Errorf("txn %d read node %d as %d, then %d", tx.ID(), id, first, again)
						}
					}
					if err != nil && !errors.Is(err, ErrAborted) {
						t.Error(err)
					}
					_ = tx.Abort()
				}
			}()
		}
		wg.Wait()
		if n := e.ActiveTxs(); n != 0 {
			t.Fatalf("shards=%d: %d transactions still active", shards, n)
		}
		wantVersionState(t, e, 0, 0, "after every transaction ended")
	}
}
