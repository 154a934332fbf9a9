// Recovery: demonstrates the PMem durability guarantees end to end —
// committed transactions survive a power failure, in-flight transactions
// roll back via the undo log, uncommitted inserts are reclaimed, and the
// hybrid index rebuilds its DRAM inner levels in milliseconds while a
// volatile index would need a full rebuild (§7.4).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"poseidon"
	"poseidon/internal/query"
)

func main() {
	db, err := poseidon.Open(poseidon.Config{Mode: poseidon.PMem, PoolSize: 512 << 20})
	if err != nil {
		log.Fatal(err)
	}

	// Committed data: 10k indexed accounts.
	tx := db.Begin()
	for i := 0; i < 10000; i++ {
		if _, err := tx.CreateNode("Account", map[string]any{
			"num": int64(i), "balance": int64(1000 + i),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := db.CreateIndex("Account", "num", poseidon.HybridIndex); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %d accounts with a hybrid index\n", db.NodeCount())

	// An in-flight transaction that will be cut off by the crash: it
	// updates one account and inserts another, but never commits.
	doomed := db.Begin()
	if err := doomed.SetNodeProps(42, map[string]any{"balance": int64(-1)}); err != nil {
		log.Fatal(err)
	}
	if _, err := doomed.CreateNode("Account", map[string]any{"num": int64(99999)}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("left a transaction in flight (update + insert, uncommitted)")

	// Power failure: everything not flushed to the durable media is gone.
	fmt.Println("\n*** simulated power failure ***")
	dev := db.Crash()

	// Recovery: pmemobj undo log rolls back, stale locks clear, the
	// uncommitted insert's slot is reclaimed, the hybrid index rebuilds
	// its inner levels from the persistent leaf chain.
	start := time.Now()
	db2, err := poseidon.Reopen(dev, poseidon.Config{Mode: poseidon.PMem})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	fmt.Printf("recovered in %v (includes hybrid index inner rebuild)\n",
		time.Since(start).Round(time.Microsecond))

	if got := db2.NodeCount(); got != 10000 {
		log.Fatalf("expected 10000 accounts after recovery, got %d", got)
	}
	fmt.Println("account count intact: 10000 (uncommitted insert reclaimed)")

	// The doomed update rolled back.
	balance := &query.Plan{Root: &query.Project{
		Input: &query.NodeByID{Param: "id"},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "balance"}},
	}}
	rows, err := db2.QueryCtx(context.Background(), balance, query.Params{"id": int64(42)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("account 42 balance after recovery: %v (uncommitted update rolled back)\n", rows[0][0])

	// The hybrid index works immediately after recovery.
	lookup := &query.Plan{Root: &query.Project{
		Input: &query.IndexScan{Label: "Account", Key: "num", Value: &query.Param{Name: "n"}},
		Cols:  []query.Expr{&query.Prop{Col: 0, Key: "balance"}},
	}}
	start = time.Now()
	rows, err = db2.QueryCtx(context.Background(), lookup, query.Params{"n": int64(7777)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed lookup of account 7777 after recovery: balance=%v in %v\n",
		rows[0][0], time.Since(start).Round(time.Microsecond))

	// And the engine accepts new transactions (the clock resumed past the
	// highest committed timestamp).
	tx2 := db2.Begin()
	if err := tx2.SetNodeProps(42, map[string]any{"balance": int64(2000)}); err != nil {
		log.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("post-recovery update committed: the engine is fully writable")
}
