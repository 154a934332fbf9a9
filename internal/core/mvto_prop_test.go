package core

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Property test for MVTO serializability: concurrent transactions doing
// random reads, writes and deletes over a small set of nodes must be
// equivalent to executing the committed transactions serially in
// timestamp order (versions carry the writer's begin timestamp, so the
// equivalent serial order is the tx-id order). Every divergence dumps the
// seed and the full committed history so the schedule can be replayed by
// re-running with POSEIDON_MVTO_SEED set.

type propOpKind int

const (
	opRead propOpKind = iota
	opWrite
	opDelete
)

type propOp struct {
	kind propOpKind
	node int   // index into the node-id table
	arg  int64 // written value (opWrite)
	// observations (opRead)
	sawMissing bool
	sawVal     int64
}

func (o propOp) String() string {
	switch o.kind {
	case opWrite:
		return fmt.Sprintf("write(n%d=%d)", o.node, o.arg)
	case opDelete:
		return fmt.Sprintf("delete(n%d)", o.node)
	default:
		if o.sawMissing {
			return fmt.Sprintf("read(n%d)=missing", o.node)
		}
		return fmt.Sprintf("read(n%d)=%d", o.node, o.sawVal)
	}
}

type propTxRecord struct {
	ts   uint64
	goID int
	ops  []propOp
}

func TestMVTOSerializabilityProperty(t *testing.T) {
	const (
		rounds     = 5
		goroutines = 4
		txPerGo    = 8
		nodeCount  = 8
	)
	baseSeed := int64(0x5eed)
	if s := os.Getenv("POSEIDON_MVTO_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("POSEIDON_MVTO_SEED: %v", err)
		}
		baseSeed = v
	}
	// Every core configuration must satisfy the property: the unsharded
	// single-monitor engine and the sharded core with its cross-shard
	// commit protocol (ascending lock order, per-shard MVTO state); in
	// both, concurrent single-shard committers share commit epochs.
	for _, shards := range []int{1, 4} {
		for round := 0; round < rounds; round++ {
			seed := baseSeed + int64(round)
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runMVTORound(t, seed, goroutines, txPerGo, nodeCount, shards)
			})
		}
	}
}

func runMVTORound(t *testing.T, seed int64, goroutines, txPerGo, nodeCount, shards int) {
	e, err := Open(Config{Mode: DRAM, PoolSize: 64 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	key, err := e.dict.Encode("v")
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]uint64, nodeCount)
	setup := e.Begin()
	for i := range ids {
		ids[i] = mustCreateNode(t, setup, "N", map[string]any{"v": int64(0)})
	}
	mustCommit(t, setup)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed []propTxRecord
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(goID int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(goID)*7919))
			for txn := 0; txn < txPerGo; txn++ {
				rec := propTxRecord{goID: goID}
				tx := e.Begin()
				rec.ts = tx.ID()
				ok := true
				nops := 1 + rng.Intn(5)
				for i := 0; i < nops && ok; i++ {
					n := rng.Intn(nodeCount)
					switch draw := rng.Intn(10); {
					case draw < 5: // read
						op := propOp{kind: opRead, node: n}
						snap, err := tx.GetNode(ids[n])
						switch {
						case err == ErrNotFound:
							op.sawMissing = true
						case err != nil:
							ok = false
						default:
							v, has := snap.Prop(uint32(key))
							if !has {
								ok = false // "v" is never removed, only rewritten
								break
							}
							op.sawVal = int64(v.Raw)
						}
						rec.ops = append(rec.ops, op)
					case draw < 9: // write
						val := int64(goID*1_000_000 + txn*1_000 + i + 1)
						if err := tx.SetNodeProps(ids[n], map[string]any{"v": val}); err != nil {
							ok = false
							break
						}
						rec.ops = append(rec.ops, propOp{kind: opWrite, node: n, arg: val})
					default: // delete
						if err := tx.DeleteNode(ids[n]); err != nil {
							ok = false
							break
						}
						rec.ops = append(rec.ops, propOp{kind: opDelete, node: n})
					}
				}
				if !ok {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					continue // conflict abort: excluded from the history
				}
				mu.Lock()
				committed = append(committed, rec)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	sort.Slice(committed, func(i, j int) bool { return committed[i].ts < committed[j].ts })
	if len(committed) == 0 {
		t.Fatal("no transaction committed; the workload is degenerate")
	}

	// Single-threaded oracle: replay the committed transactions in
	// timestamp order and check every recorded read.
	type cell struct {
		val   int64
		alive bool
	}
	state := make([]cell, nodeCount)
	for i := range state {
		state[i] = cell{val: 0, alive: true}
	}
	for ti, rec := range committed {
		overlay := make(map[int]cell)
		get := func(n int) cell {
			if c, ok := overlay[n]; ok {
				return c
			}
			return state[n]
		}
		for oi, op := range rec.ops {
			switch op.kind {
			case opRead:
				c := get(op.node)
				want := propOp{kind: opRead, node: op.node, sawMissing: !c.alive}
				if c.alive {
					want.sawVal = c.val
				}
				got := op
				if got.sawMissing != want.sawMissing || (!got.sawMissing && got.sawVal != want.sawVal) {
					t.Fatalf("serializability violation at tx ts=%d (goroutine %d) op %d:\n  engine observed %s, serial oracle expects %s\nseed=%d\nhistory:\n%s",
						rec.ts, rec.goID, oi, got, want, seed, dumpHistory(committed, ti))
				}
			case opWrite:
				overlay[op.node] = cell{val: op.arg, alive: true}
			case opDelete:
				overlay[op.node] = cell{alive: false}
			}
		}
		for n, c := range overlay {
			state[n] = c
		}
	}
}

func dumpHistory(committed []propTxRecord, upTo int) string {
	var b strings.Builder
	for i, rec := range committed {
		if i > upTo {
			break
		}
		ops := make([]string, len(rec.ops))
		for j, op := range rec.ops {
			ops[j] = op.String()
		}
		fmt.Fprintf(&b, "  ts=%d g%d: %s\n", rec.ts, rec.goID, strings.Join(ops, ", "))
	}
	return b.String()
}
