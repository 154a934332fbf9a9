//go:build !race

package jit

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// Allocation budgets of the label-first read path, through each of its
// drivers. The race detector's instrumentation allocates on its own, so
// the file stays out of -race builds (as internal/bench's shape tests
// skip there).

// rareGraph bulk-loads rare "Rare" nodes spread evenly among common
// "Common" ones, six properties each, plus one bare node; it returns the
// engine, one Rare id and the bare id.
func rareGraph(t *testing.T, rare, common int) (*core.Engine, uint64, uint64) {
	t.Helper()
	e, err := core.Open(core.Config{Mode: core.DRAM, PoolSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	bl := e.NewBulkLoader()
	props := func(i int) map[string]any {
		m := map[string]any{}
		for k := 0; k < 6; k++ {
			m[fmt.Sprintf("p%d", k)] = int64(i + k)
		}
		return m
	}
	var aRare uint64
	every := common / rare
	for i := 0; i < common; i++ {
		if i%every == 0 && i/every < rare {
			if aRare, err = bl.AddNode("Rare", props(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := bl.AddNode("Common", props(i)); err != nil {
			t.Fatal(err)
		}
	}
	bare, err := bl.AddNode("Bare", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	return e, aRare, bare
}

// rarePlan scans the Rare label, filters and projects: every operator
// shape the scan_adaptive workload runs per node.
func rarePlan() *query.Plan {
	return &query.Plan{Root: &query.Project{
		Input: &query.Filter{
			Input: &query.NodeScan{Label: "Rare"},
			Pred:  &query.Cmp{Op: query.Ge, L: &query.Prop{Col: 0, Key: "p0"}, R: &query.Const{Val: 0}},
		},
		Cols: []query.Expr{&query.Prop{Col: 0, Key: "p5"}},
	}}
}

const (
	rareNodes   = 48
	commonNodes = 2400
	// perScannedNode is the budget of a label scan: the nodes it rejects
	// cost nothing, the rare match a Tuple (its properties go to the
	// walker's one row buffer).
	perScannedNode = 0.05
)

func TestLabelScanAllocBudget(t *testing.T) {
	e, _, _ := rareGraph(t, rareNodes, commonNodes)
	code, _ := e.Dict().Lookup("Rare")
	tx := e.Begin()
	defer tx.Abort()
	budget := perScannedNode * (rareNodes + commonNodes)

	t.Run("NodeIter", func(t *testing.T) {
		matches := 0
		allocs := testing.AllocsPerRun(10, func() {
			it := tx.NewNodeIter(uint32(code))
			for {
				ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
				matches++
			}
		})
		if matches != 11*rareNodes {
			t.Fatalf("scans matched %d nodes, want 11×%d", matches, rareNodes)
		}
		if allocs > budget {
			t.Errorf("label scan of %d nodes: %.0f allocs, budget %.0f", rareNodes+commonNodes, allocs, budget)
		}
		t.Logf("%.0f allocs per scan", allocs)
	})

	t.Run("Exec", func(t *testing.T) {
		j, err := New(e)
		if err != nil {
			t.Fatal(err)
		}
		c, err := j.CompileCtx(context.Background(), rarePlan())
		if err != nil {
			t.Fatal(err)
		}
		exec := c.Prog.NewExec()
		ctx := &query.Ctx{E: e, Tx: tx}
		rows := 0
		sink := func(query.Tuple) (bool, error) { rows++; return true, nil }
		morsels := query.MorselCount(e.Nodes().MaxID(), e.Nodes().ChunkCap())
		allocs := testing.AllocsPerRun(10, func() {
			for m := uint64(0); m < morsels; m++ {
				if err := exec.Run(ctx, m, sink); err != nil {
					t.Fatal(err)
				}
			}
		})
		if rows != 11*rareNodes {
			t.Fatalf("runs emitted %d rows, want 11×%d", rows, rareNodes)
		}
		if allocs > budget {
			t.Errorf("compiled label scan of %d nodes: %.0f allocs, budget %.0f", rareNodes+commonNodes, allocs, budget)
		}
		t.Logf("%.0f allocs per run (one Tuple per emitted row)", allocs)
	})
}

// TestMorselInterpreterAllocsIgnoreRejectedNodes: through the morsel
// interpreter a match still costs its Tuples, but a node the label
// rejects costs nothing — five times the rejected nodes (and morsels),
// the same allocations.
func TestMorselInterpreterAllocsIgnoreRejectedNodes(t *testing.T) {
	passAllocs := func(common int) float64 {
		e, _, _ := rareGraph(t, rareNodes, common)
		mp := rarePlan().Split()
		if !mp.Morsels() {
			t.Fatal("plan does not split into morsels")
		}
		tx := e.Begin()
		defer tx.Abort()
		rows := 0
		var chunk uint64
		run, err := mp.PipelineRunner(&query.Ctx{E: e, Tx: tx}, &chunk,
			func(query.Tuple) (bool, error) { rows++; return true, nil })
		if err != nil {
			t.Fatal(err)
		}
		morsels := query.MorselCount(e.Nodes().MaxID(), e.Nodes().ChunkCap())
		allocs := testing.AllocsPerRun(10, func() {
			for chunk = 0; chunk < morsels; chunk++ {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if rows != 11*rareNodes {
			t.Fatalf("%d common nodes: %d rows, want 11×%d", common, rows, rareNodes)
		}
		t.Logf("%d rejected nodes in %d morsels: %.0f allocs per pass", common, morsels, allocs)
		return allocs
	}
	few, many := passAllocs(commonNodes/2), passAllocs(commonNodes*5/2)
	if many > few+1 {
		t.Errorf("allocations grew with the rejected nodes: %.0f for %d, %.0f for %d",
			few, commonNodes/2, many, commonNodes*5/2)
	}
}

// TestLabelScanBytesIndependentOfMatches: a label scan whose filter keeps
// one node reads every match's property chain into its walker's one row
// buffer, so ten times the matches cost the compiled scan no more bytes,
// and the morsel interpreter no more than the one-column Tuple its scan
// emits per match. (A slab kept every match's set, 24 bytes a property,
// and was replaced by a new 512-property array each time one filled.)
func TestLabelScanBytesIndependentOfMatches(t *testing.T) {
	const passes = 10
	plan := func() *query.Plan {
		return &query.Plan{Root: &query.Project{
			Input: &query.Filter{
				Input: &query.NodeScan{Label: "Rare"},
				Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "p0"}, R: &query.Const{Val: 0}},
			},
			Cols: []query.Expr{&query.Prop{Col: 0, Key: "p5"}},
		}}
	}
	// bytesPer returns the bytes one call of fn allocates, over passes
	// calls.
	bytesPer := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / passes
	}
	// measure runs a pass over every morsel of the table once to warm up,
	// then returns the bytes a pass allocates, compiled and interpreted.
	measure := func(t *testing.T, rare int) (compiled, interpreted float64) {
		e, _, _ := rareGraph(t, rare, commonNodes)
		tx := e.Begin()
		defer tx.Abort()
		ctx := &query.Ctx{E: e, Tx: tx}
		morsels := query.MorselCount(e.Nodes().MaxID(), e.Nodes().ChunkCap())
		rows := 0
		sink := func(query.Tuple) (bool, error) { rows++; return true, nil }
		bytesPerPass := func(run func(m uint64) error) float64 {
			pass := func() {
				rows = 0
				for m := uint64(0); m < morsels; m++ {
					if err := run(m); err != nil {
						t.Fatal(err)
					}
				}
				if rows != 1 {
					t.Fatalf("a pass emitted %d rows, want 1", rows)
				}
			}
			pass()
			return bytesPer(pass)
		}

		j, err := New(e)
		if err != nil {
			t.Fatal(err)
		}
		c, err := j.CompileCtx(context.Background(), plan())
		if err != nil {
			t.Fatal(err)
		}
		exec := c.Prog.NewExec()
		compiled = bytesPerPass(func(m uint64) error { return exec.Run(ctx, m, sink) })

		var chunk uint64
		run, err := plan().Split().PipelineRunner(ctx, &chunk, sink)
		if err != nil {
			t.Fatal(err)
		}
		interpreted = bytesPerPass(func(m uint64) error { chunk = m; return run() })
		return compiled, interpreted
	}
	fewC, fewI := measure(t, rareNodes)
	manyC, manyI := measure(t, 10*rareNodes)
	tupleBytes := bytesPer(func() { scanTuple = query.Tuple{{Kind: query.DNode}} })
	scanTuples := float64(9*rareNodes) * tupleBytes
	t.Logf("bytes per pass for %d → %d matches: compiled %.0f → %.0f, interpreted %.0f → %.0f (%.0f a scan Tuple)",
		rareNodes, 10*rareNodes, fewC, manyC, fewI, manyI, tupleBytes)
	if manyC > fewC+1024 {
		t.Errorf("compiled label scan: %.0f bytes per pass over %d matches, %.0f over %d", manyC, 10*rareNodes, fewC, rareNodes)
	}
	if manyI > fewI+scanTuples+1024 {
		t.Errorf("morsel interpreter: %.0f bytes per pass over %d matches, %.0f over %d plus %.0f of scan Tuples",
			manyI, 10*rareNodes, fewI, rareNodes, scanTuples)
	}
}

// scanTuple keeps the Tuple whose bytes TestLabelScanBytesIndependentOfMatches
// measures on the heap.
var scanTuple query.Tuple

func TestGetNodeAllocBudget(t *testing.T) {
	e, rare, bare := rareGraph(t, rareNodes, commonNodes)
	tx := e.Begin()
	defer tx.Abort()
	for _, tc := range []struct {
		name   string
		id     uint64
		budget float64
	}{{"six properties", rare, 1}, {"no properties", bare, 0}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := tx.GetNode(tc.id); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("GetNode of a table-resident node with %s: %.0f allocs, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
