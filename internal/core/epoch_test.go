package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"poseidon/internal/pmem"
	"poseidon/internal/trace"
)

// traceOf runs fn under one root span and returns the finished trace.
// Transactions that attach ctx report their commit spans into it.
func traceOf(t *testing.T, fn func(ctx context.Context)) *trace.Trace {
	t.Helper()
	tr := trace.New(trace.Config{SampleRate: 1})
	ctx, root := tr.Start(context.Background(), "test", trace.KindSession)
	fn(ctx)
	root.End()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	return traces[0]
}

func spansNamed(tr *trace.Trace, name string) []trace.SpanData {
	var out []trace.SpanData
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// attrs returns every value the span carries under key.
func attrs(sp trace.SpanData, key string) []any {
	var out []any
	for _, a := range sp.Attrs {
		if a.Key == key {
			out = append(out, a.Value)
		}
	}
	return out
}

// TestCommitBatchTraced: every member of an epoch gets its own
// core.commit span, whichever producer carried it, and the epoch's one
// pmem.persist span hangs off the first member's.
func TestCommitBatchTraced(t *testing.T) {
	e := newGroupEngine(t, 1)
	tr := traceOf(t, func(ctx context.Context) {
		txs := make([]*Tx, 3)
		for i := range txs {
			txs[i] = e.Begin()
			txs[i].WithContext(ctx)
			mustCreateNode(t, txs[i], "T", map[string]any{"i": int64(i)})
		}
		for i, err := range e.CommitBatch(txs) {
			if err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
		}
	})
	commits := spansNamed(tr, "core.commit")
	if len(commits) != 3 {
		t.Fatalf("%d core.commit spans, want 3", len(commits))
	}
	for _, sp := range commits {
		if got := attrs(sp, "epoch_members"); len(got) != 1 || got[0] != int64(3) {
			t.Errorf("core.commit epoch_members = %v, want [3]", got)
		}
		if got := attrs(sp, "shards"); len(got) != 1 || got[0] != int64(1) {
			t.Errorf("core.commit shards = %v, want [1]", got)
		}
	}
	persists := spansNamed(tr, "pmem.persist")
	if len(persists) != 1 {
		t.Fatalf("%d pmem.persist spans, want 1", len(persists))
	}
	if persists[0].Parent != commits[0].ID {
		t.Errorf("pmem.persist parent = %x, want the first member's core.commit %x", persists[0].Parent, commits[0].ID)
	}
	if got := attrs(persists[0], "drains"); len(got) != 1 || got[0].(int64) == 0 {
		t.Errorf("pmem.persist drains = %v, want one non-zero count", got)
	}
}

// TestQueuedCommitTraced: commits through the shard queue report how
// long they queued, and a cross-shard commit names itself as such.
func TestQueuedCommitTraced(t *testing.T) {
	e := newShardedEngine(t, 4)
	ids := nodePerShard(t, e)
	tr := traceOf(t, func(ctx context.Context) {
		solo := e.Begin()
		solo.WithContext(ctx)
		if err := solo.SetNodeProps(ids[1], map[string]any{"v": int64(1)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, solo)
		cross := e.Begin()
		cross.WithContext(ctx)
		for _, id := range ids[2:] {
			if err := cross.SetNodeProps(id, map[string]any{"v": int64(2)}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, cross)
	})
	commits := spansNamed(tr, "core.commit")
	if len(commits) != 2 || len(spansNamed(tr, "pmem.persist")) != 2 {
		t.Fatalf("spans = %d core.commit, %d pmem.persist; want 2 and 2",
			len(commits), len(spansNamed(tr, "pmem.persist")))
	}
	if got := attrs(commits[0], "queue_wait_ns"); len(got) != 1 {
		t.Errorf("queued commit queue_wait_ns = %v, want one value", got)
	}
	if got := attrs(commits[0], "cross_shard"); len(got) != 0 {
		t.Errorf("single-shard commit carries cross_shard = %v", got)
	}
	if got := attrs(commits[1], "cross_shard"); len(got) != 1 || got[0] != true {
		t.Errorf("cross-shard commit cross_shard = %v, want [true]", got)
	}
	if got := attrs(commits[1], "shards"); len(got) != 1 || got[0] != int64(2) {
		t.Errorf("cross-shard commit shards = %v, want [2]", got)
	}
}

// propless creates one committed node without properties in every shard,
// so the property table is still empty: the first commit that writes
// properties finds its shards full and must reserve capacity.
func propless(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	return nodePerShardWith(t, e, nil)
}

// TestShardFullReservationDeterministic: the ErrShardFull retry reserves
// property capacity in ascending shard order, so the same commit issues
// the same device events on every run — crash schedules stay replayable.
// (The per-transaction path used to range over a map here.)
func TestShardFullReservationDeterministic(t *testing.T) {
	events := func() uint64 {
		e := newGroupEngine(t, 4)
		ids := propless(t, e)
		tx := e.Begin()
		for _, id := range ids[1:] { // shards 1..3: none owns a property chunk yet
			if err := tx.SetNodeProps(id, map[string]any{"v": int64(7)}); err != nil {
				t.Fatal(err)
			}
		}
		e.Device().ArmCrash(pmem.EvAll, 0) // count only
		mustCommit(t, tx)
		n, _ := e.Device().DisarmCrash()
		return n
	}
	want := events()
	for run := 1; run < 12; run++ {
		if got := events(); got != want {
			t.Fatalf("run %d issued %d device events, run 0 issued %d", run, got, want)
		}
	}
}

// TestShardFullRetriesCounted: whichever producer carries the commit, a
// reservation retry is reported once on the epoch's persist span, as a
// count.
func TestShardFullRetriesCounted(t *testing.T) {
	producers := map[string]func(e *Engine, tx *Tx) error{
		"commit": func(e *Engine, tx *Tx) error { return tx.Commit() },
		"batch":  func(e *Engine, tx *Tx) error { return e.CommitBatch([]*Tx{tx})[0] },
	}
	for name, commit := range producers {
		for _, nodes := range []int{1, 3} { // single-shard and cross-shard
			t.Run(fmt.Sprintf("%s/nodes=%d", name, nodes), func(t *testing.T) {
				e := newGroupEngine(t, 4)
				ids := propless(t, e)
				tr := traceOf(t, func(ctx context.Context) {
					tx := e.Begin()
					tx.WithContext(ctx)
					for _, id := range ids[1 : 1+nodes] {
						if err := tx.SetNodeProps(id, map[string]any{"v": int64(7)}); err != nil {
							t.Fatal(err)
						}
					}
					if err := commit(e, tx); err != nil {
						t.Fatal(err)
					}
				})
				persists := spansNamed(tr, "pmem.persist")
				if len(persists) != 1 {
					t.Fatalf("%d pmem.persist spans, want 1", len(persists))
				}
				if got := attrs(persists[0], "shard_full_retries"); len(got) != 1 || got[0] != int64(1) {
					t.Errorf("shard_full_retries = %v, want [1]", got)
				}
			})
		}
	}
}

// TestEpochPanicWakesFollowers: when the epoch leader panics mid-commit
// (here: an injected power failure), the followers parked behind it are
// not left waiting — the panic is re-raised in each of them — and the
// queue keeps serving later committers.
func TestEpochPanicWakesFollowers(t *testing.T) {
	e := newGroupEngine(t, 1)
	q := &e.shards[0].queue
	const followers = 3
	txs := make([]*Tx, 1+followers)
	for i := range txs {
		txs[i] = e.Begin()
		mustCreateNode(t, txs[i], "P", map[string]any{"i": int64(i)})
	}

	// Hold the queue's leadership so the committers park as followers of
	// one epoch, then lead it from this goroutine with a crash armed.
	q.mu.Lock()
	q.leading = true
	q.mu.Unlock()
	crashed := make(chan any, len(txs))
	var wg sync.WaitGroup
	for _, tx := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { crashed <- recover() }()
			_ = tx.Commit()
		}()
	}
	for parked := 0; parked < len(txs); runtime.Gosched() {
		q.mu.Lock()
		parked = len(q.pending)
		q.mu.Unlock()
	}
	q.mu.Lock()
	head := q.pending[0]
	q.mu.Unlock()
	e.Device().ArmCrash(pmem.EvDrain, 2) // inside the epoch's lane transaction
	head.seat.leads = true
	head.seat.wake.Done()
	wg.Wait()
	close(crashed)
	for r := range crashed {
		if _, ok := r.(*pmem.InjectedCrash); !ok {
			t.Errorf("committer recovered %v, want *pmem.InjectedCrash", r)
		}
	}
	e.Device().DisarmCrash()

	// The queue survived: the next committer leads an epoch of its own.
	q.mu.Lock()
	leading, pending := q.leading, len(q.pending)
	q.mu.Unlock()
	if leading || pending != 0 {
		t.Fatalf("queue after the panic: leading=%v pending=%d, want idle", leading, pending)
	}
	next := e.Begin()
	mustCreateNode(t, next, "P", nil)
	mustCommit(t, next)
}
