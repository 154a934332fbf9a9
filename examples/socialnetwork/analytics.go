package main

// Snapshot-consistent graph analytics over the transactional engine — the
// paper's stated next step ("in our ongoing work, we plan to investigate
// the behavior of complex graph analytics", §8). Algorithms run inside
// one MVTO read transaction, so they observe a consistent snapshot while
// concurrent updates proceed — the HTAP setting the engine's architecture
// targets.
//
// The algorithms use the same AOT access methods as the query engine
// (adjacency iterators over offset-linked relationship lists), so their
// access patterns exercise exactly the storage design of §4.

import (
	"fmt"
	"math"
	"sort"

	"poseidon/internal/core"
)

// idIndexer maps sparse record ids to dense [0,n) indexes for the
// algorithm working sets (which live in DRAM, per DG2: intermediate
// results stay volatile).
type idIndexer struct {
	idx map[uint64]int
	ids []uint64
}

func newIndexer() *idIndexer { return &idIndexer{idx: make(map[uint64]int)} }

func (x *idIndexer) add(id uint64) int {
	if i, ok := x.idx[id]; ok {
		return i
	}
	i := len(x.ids)
	x.idx[id] = i
	x.ids = append(x.ids, id)
	return i
}

// collectNodes gathers the visible nodes with the given label code (0 =
// all) and their dense index.
func collectNodes(tx *core.Tx, labelCode uint32) (*idIndexer, error) {
	x := newIndexer()
	err := tx.ScanNodes(func(n core.NodeSnap) bool {
		if labelCode == 0 || n.Rec.Label == labelCode {
			x.add(n.ID)
		}
		return true
	})
	return x, err
}

func labelCodeOf(tx *core.Tx, relLabel string) (uint32, error) {
	if relLabel == "" {
		return 0, nil
	}
	code, ok := tx.EngineDict().Lookup(relLabel)
	if !ok {
		return 0, fmt.Errorf("analytics: unknown relationship label %q", relLabel)
	}
	return uint32(code), nil
}

// visitNeighbors calls fn for every neighbor of n over rels with
// labelCode (0 = all), both directions.
func visitNeighbors(tx *core.Tx, n core.NodeSnap, labelCode uint32, fn func(core.NodeSnap) error) error {
	visit := func(it *core.AdjIter, out bool) error {
		for {
			ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			r := it.Rel()
			other := r.Rec.Dst
			if !out {
				other = r.Rec.Src
			}
			m, err := tx.GetNode(other)
			if err == core.ErrNotFound {
				continue
			}
			if err != nil {
				return err
			}
			if err := fn(m); err != nil {
				return err
			}
		}
	}
	if err := visit(tx.NewOutRelIter(n, labelCode), true); err != nil {
		return err
	}
	return visit(tx.NewInRelIter(n, labelCode), false)
}

// PageRankResult holds ranks by node id.
type PageRankResult struct {
	Rank       map[uint64]float64
	Iterations int
	Delta      float64 // L1 change of the final iteration
}

// PageRank computes ranks over the nodes with nodeLabel (empty = all)
// and the directed relationships with relLabel (empty = all), within the
// transaction's snapshot. It iterates until the L1 delta drops below eps
// or maxIter is reached.
func PageRank(tx *core.Tx, nodeLabel, relLabel string, damping float64, maxIter int, eps float64) (*PageRankResult, error) {
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("analytics: damping must be in (0,1), got %v", damping)
	}
	var nodeCode uint32
	if nodeLabel != "" {
		code, ok := tx.EngineDict().Lookup(nodeLabel)
		if !ok {
			return &PageRankResult{Rank: map[uint64]float64{}}, nil
		}
		nodeCode = uint32(code)
	}
	relCode, err := labelCodeOf(tx, relLabel)
	if err != nil {
		return &PageRankResult{Rank: map[uint64]float64{}}, nil
	}

	x, err := collectNodes(tx, nodeCode)
	if err != nil {
		return nil, err
	}
	n := len(x.ids)
	if n == 0 {
		return &PageRankResult{Rank: map[uint64]float64{}}, nil
	}

	// Materialize the out-adjacency once (DRAM working set, DG2).
	adj := make([][]int32, n)
	for i, id := range x.ids {
		snap, err := tx.GetNode(id)
		if err != nil {
			continue
		}
		it := tx.NewOutRelIter(snap, relCode)
		for {
			ok, err := it.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if j, in := x.idx[it.Rel().Rec.Dst]; in {
				adj[i] = append(adj[i], int32(j))
			}
		}
	}

	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	res := &PageRankResult{}
	for iter := 0; iter < maxIter; iter++ {
		var sink float64 // rank mass of dangling nodes, redistributed
		for i := range next {
			next[i] = base
		}
		for i, out := range adj {
			if len(out) == 0 {
				sink += rank[i]
				continue
			}
			share := damping * rank[i] / float64(len(out))
			for _, j := range out {
				next[j] += share
			}
		}
		if sink > 0 {
			spread := damping * sink / float64(n)
			for i := range next {
				next[i] += spread
			}
		}
		delta := 0.0
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		res.Iterations = iter + 1
		res.Delta = delta
		if delta < eps {
			break
		}
	}
	res.Rank = make(map[uint64]float64, n)
	for i, id := range x.ids {
		res.Rank[id] = rank[i]
	}
	return res, nil
}

// DegreeStats summarizes the degree distribution of a relationship label.
type DegreeStats struct {
	Nodes       int
	Edges       int
	MaxOut      int
	MaxIn       int
	AvgOut      float64
	Percentile9 int // 90th percentile out-degree
}

// Degrees computes out/in degree statistics over the snapshot.
func Degrees(tx *core.Tx, nodeLabel, relLabel string) (*DegreeStats, error) {
	var nodeCode uint32
	if nodeLabel != "" {
		code, ok := tx.EngineDict().Lookup(nodeLabel)
		if !ok {
			return &DegreeStats{}, nil
		}
		nodeCode = uint32(code)
	}
	relCode, err := labelCodeOf(tx, relLabel)
	if err != nil {
		return &DegreeStats{}, nil
	}
	st := &DegreeStats{}
	var outs []int
	err = tx.ScanNodes(func(n core.NodeSnap) bool {
		if nodeCode != 0 && n.Rec.Label != nodeCode {
			return true
		}
		st.Nodes++
		out, in := 0, 0
		itO := tx.NewOutRelIter(n, relCode)
		for {
			ok, err2 := itO.Next()
			if err2 != nil || !ok {
				break
			}
			out++
		}
		itI := tx.NewInRelIter(n, relCode)
		for {
			ok, err2 := itI.Next()
			if err2 != nil || !ok {
				break
			}
			in++
		}
		st.Edges += out
		if out > st.MaxOut {
			st.MaxOut = out
		}
		if in > st.MaxIn {
			st.MaxIn = in
		}
		outs = append(outs, out)
		return true
	})
	if err != nil {
		return nil, err
	}
	if st.Nodes > 0 {
		st.AvgOut = float64(st.Edges) / float64(st.Nodes)
		sort.Ints(outs)
		idx := len(outs) * 9 / 10
		if idx >= len(outs) {
			idx = len(outs) - 1
		}
		st.Percentile9 = outs[idx] // nearest-rank 90th percentile
	}
	return st, nil
}

// WeaklyConnectedComponents counts the weakly connected components over
// relationships with relLabel (empty = all), returning component sizes in
// descending order.
func WeaklyConnectedComponents(tx *core.Tx, relLabel string) ([]int, error) {
	relCode, err := labelCodeOf(tx, relLabel)
	if err != nil {
		return nil, nil
	}
	seen := map[uint64]bool{}
	var sizes []int
	var scanErr error
	err = tx.ScanNodes(func(n core.NodeSnap) bool {
		if seen[n.ID] {
			return true
		}
		// BFS flood from this node.
		size := 0
		frontier := []core.NodeSnap{n}
		seen[n.ID] = true
		for len(frontier) > 0 {
			var next []core.NodeSnap
			for _, cur := range frontier {
				size++
				if err := visitNeighbors(tx, cur, relCode, func(m core.NodeSnap) error {
					if !seen[m.ID] {
						seen[m.ID] = true
						next = append(next, m)
					}
					return nil
				}); err != nil {
					scanErr = err
					return false
				}
			}
			frontier = next
		}
		sizes = append(sizes, size)
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes, nil
}
