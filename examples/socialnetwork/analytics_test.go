package main

import (
	"math"
	"testing"

	"poseidon/internal/core"
)

// chainGraph builds 0-1-2-...-9 (knows) plus an isolated island 10-11.
func chainGraph(t *testing.T) (*core.Engine, []uint64) {
	t.Helper()
	e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	bl := e.NewBulkLoader()
	ids := make([]uint64, 12)
	for i := range ids {
		ids[i], err = bl.AddNode("P", map[string]any{"i": int64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 9; i++ {
		bl.AddRel(ids[i], ids[i+1], "knows", nil)
	}
	bl.AddRel(ids[10], ids[11], "knows", nil)
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	return e, ids
}

func TestPageRankPropertiesOnRing(t *testing.T) {
	e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bl := e.NewBulkLoader()
	const n = 20
	ids := make([]uint64, n)
	for i := range ids {
		ids[i], _ = bl.AddNode("P", nil)
	}
	for i := range ids {
		bl.AddRel(ids[i], ids[(i+1)%n], "next", nil)
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Abort()
	res, err := PageRank(tx, "P", "next", 0.85, 100, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric ring: every node has identical rank 1/n, and ranks sum to 1.
	sum := 0.0
	for _, r := range res.Rank {
		sum += r
		if math.Abs(r-1.0/n) > 1e-6 {
			t.Fatalf("ring rank %v, want %v", r, 1.0/n)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
	if res.Iterations == 0 || res.Delta > 1e-9 {
		t.Errorf("did not converge: iters=%d delta=%v", res.Iterations, res.Delta)
	}
}

func TestPageRankHubGetsHighestRank(t *testing.T) {
	e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bl := e.NewBulkLoader()
	hub, _ := bl.AddNode("P", nil)
	for i := 0; i < 10; i++ {
		spoke, _ := bl.AddNode("P", nil)
		bl.AddRel(spoke, hub, "next", nil) // all point at the hub
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Abort()
	res, err := PageRank(tx, "P", "next", 0.85, 100, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range res.Rank {
		if id != hub && r >= res.Rank[hub] {
			t.Errorf("spoke %d rank %v >= hub %v", id, r, res.Rank[hub])
		}
	}
}

func TestPageRankValidation(t *testing.T) {
	e, _ := chainGraph(t)
	tx := e.Begin()
	defer tx.Abort()
	if _, err := PageRank(tx, "P", "knows", 1.5, 10, 1e-6); err == nil {
		t.Error("invalid damping accepted")
	}
	res, err := PageRank(tx, "Ghost", "knows", 0.85, 10, 1e-6)
	if err != nil || len(res.Rank) != 0 {
		t.Errorf("unknown label: %v, %d ranks", err, len(res.Rank))
	}
}

func TestDegrees(t *testing.T) {
	e, _ := chainGraph(t)
	tx := e.Begin()
	defer tx.Abort()
	st, err := Degrees(tx, "P", "knows")
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 12 {
		t.Errorf("nodes = %d", st.Nodes)
	}
	if st.Edges != 10 {
		t.Errorf("edges = %d", st.Edges)
	}
	if st.MaxOut != 1 || st.MaxIn != 1 {
		t.Errorf("max degrees %d/%d, want 1/1", st.MaxOut, st.MaxIn)
	}
	if st.AvgOut <= 0 {
		t.Errorf("avg out %v", st.AvgOut)
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	e, _ := chainGraph(t)
	tx := e.Begin()
	defer tx.Abort()
	sizes, err := WeaklyConnectedComponents(tx, "knows")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 2 {
		t.Errorf("components = %v, want [10 2]", sizes)
	}
}

func TestAnalyticsSeeSnapshotNotLaterCommits(t *testing.T) {
	// HTAP: a long-running analytical transaction must not observe
	// updates committed after it began.
	e, ids := chainGraph(t)
	analyticTx := e.Begin()
	defer analyticTx.Abort()

	// A concurrent transactional update adds an edge bridging the island.
	writer := e.Begin()
	if _, err := writer.CreateRel(ids[9], ids[10], "knows", nil); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	sizes, err := WeaklyConnectedComponents(analyticTx, "knows")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 2 {
		t.Errorf("snapshot components = %v, want [10 2] (bridge invisible)", sizes)
	}

	// A fresh transaction sees the bridge.
	freshTx := e.Begin()
	defer freshTx.Abort()
	sizes, err = WeaklyConnectedComponents(freshTx, "knows")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != 12 {
		t.Errorf("fresh components = %v, want [12]", sizes)
	}
}
