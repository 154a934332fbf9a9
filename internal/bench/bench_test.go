package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// tinySetup keeps functional tests fast; shape assertions run on cmd/
// and root-level benchmarks with realistic scales.
func tinySetup(t *testing.T) *Setup {
	t.Helper()
	s, err := NewSetup(Options{Persons: 40, Runs: 2, Workers: 2, PoolSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Ctx = context.Background()
	t.Cleanup(s.Close)
	return s
}

func TestAllFiguresProduceCompleteTables(t *testing.T) {
	s := tinySetup(t)
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("got %d tables, want 6", len(tables))
	}
	wantRows := []int{12, 8, 12, 3, 8, 12} // fig5..fig10
	for i, tbl := range tables {
		if len(tbl.Rows) != wantRows[i] {
			t.Errorf("%s: %d rows, want %d", tbl.Name, len(tbl.Rows), wantRows[i])
		}
		for _, r := range tbl.Rows {
			for _, c := range tbl.Columns {
				v, ok := r.Cells[c]
				// Fig 8 has one sparse column layout; others must be full.
				if !ok && !strings.Contains(tbl.Name, "Fig 8") {
					t.Errorf("%s: row %s missing column %s", tbl.Name, r.Query, c)
					continue
				}
				if ok && (v < 0 || v > 1e9) {
					t.Errorf("%s: row %s col %s implausible value %f", tbl.Name, r.Query, c, v)
				}
			}
		}
		out := tbl.Format()
		if !strings.Contains(out, tbl.Rows[0].Query) {
			t.Errorf("%s: Format output missing first row", tbl.Name)
		}
	}
}

func TestFig5ShapeDiskSlowest(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector")
	}
	s := tinySetup(t)
	// The headline claim: the PMem engine with indexes beats the
	// disk-based system. Tiny scale + a shared CPU are noisy: accept the
	// shape if any of a few attempts shows it.
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		tbl, err := s.Fig5()
		if err != nil {
			t.Fatal(err)
		}
		faster := 0
		var pmemSum, diskSum float64
		for _, r := range tbl.Rows {
			pmemSum += r.Cells["pmem-i"]
			diskSum += r.Cells["disk-i"]
			if r.Cells["pmem-i"] < r.Cells["disk-i"] {
				faster++
			}
		}
		if pmemSum < diskSum && faster >= len(tbl.Rows)*3/4 {
			return
		}
		last = fmt.Sprintf("pmem-i total %.1fus vs disk-i total %.1fus, faster on %d/%d",
			pmemSum, diskSum, faster, len(tbl.Rows))
	}
	t.Errorf("Fig5 shape not observed in 3 attempts: %s", last)
}

func TestFig8ShapeHybridLookupAndRecovery(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector")
	}
	s := tinySetup(t)
	// Wall-clock shapes on a shared CI box are noisy: accept the shape if
	// any of a few attempts shows it.
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		tbl, err := s.Fig8()
		if err != nil {
			t.Fatal(err)
		}
		cells := map[string]map[string]float64{}
		for _, r := range tbl.Rows {
			cells[r.Query] = r.Cells
		}
		okLookup := cells["hybrid"]["lookup-us"] < cells["persistent"]["lookup-us"]
		okRecovery := cells["hybrid"]["recovery-ms"]*2 < cells["volatile"]["recovery-ms"]
		if okLookup && okRecovery {
			return
		}
		last = fmt.Sprintf("lookup hybrid=%.2fus persistent=%.2fus; recovery hybrid=%.2fms volatile=%.2fms",
			cells["hybrid"]["lookup-us"], cells["persistent"]["lookup-us"],
			cells["hybrid"]["recovery-ms"], cells["volatile"]["recovery-ms"])
	}
	t.Errorf("Fig8 shape not observed in 3 attempts: %s", last)
}

func TestFig6ShapeDiskCommitSlowest(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector")
	}
	s := tinySetup(t)
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		tbl, err := s.Fig6()
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, r := range tbl.Rows {
			if r.Cells["pmem-commit"] >= r.Cells["disk-commit"] {
				ok = false
				last = fmt.Sprintf("IU%s: pmem commit %.1fus vs disk commit %.1fus",
					r.Query, r.Cells["pmem-commit"], r.Cells["disk-commit"])
			}
		}
		if ok {
			return
		}
	}
	t.Errorf("Fig6 shape not observed in 3 attempts: %s", last)
}

func TestAblationsShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector")
	}
	s := tinySetup(t)
	// Wall-clock factors on a shared box are noisy: accept the shapes if
	// any of a few attempts shows them all, like the Fig 5–8 tests.
	var last []string
	for attempt := 0; attempt < 3; attempt++ {
		tbl, err := s.Ablations()
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 6 {
			t.Fatalf("ablation rows = %d, want 6", len(tbl.Rows))
		}
		factors := map[string]float64{}
		for _, r := range tbl.Rows {
			factors[r.Query] = r.Cells["factor"]
		}
		last = nil
		// Every chosen design must beat its alternative, except
		// atomic-commit which intentionally pays for crash consistency
		// (factor < 1).
		for _, name := range []string{"dirty-versions", "offset-links", "group-alloc", "aligned-chunks"} {
			if factors[name] <= 1.0 {
				last = append(last, fmt.Sprintf("%s: factor %.2f, want > 1 (chosen design should win)", name, factors[name]))
			}
		}
		if factors["atomic-commit"] >= 1.0 {
			last = append(last, fmt.Sprintf("atomic-commit: factor %.2f, want < 1 (crash safety costs something)", factors["atomic-commit"]))
		}
		if len(last) == 0 {
			return
		}
	}
	t.Errorf("ablation shapes not observed in 3 attempts: %s", strings.Join(last, "; "))
}

func TestFig7ShapeJITBeatsAOTAggregate(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector")
	}
	s := tinySetup(t)
	var last string
	for attempt := 0; attempt < 3; attempt++ {
		tbl, err := s.Fig7()
		if err != nil {
			t.Fatal(err)
		}
		var aot, jit float64
		for _, r := range tbl.Rows {
			aot += r.Cells["pmem-aot"]
			jit += r.Cells["pmem-jit"]
		}
		if jit < aot {
			return
		}
		last = fmt.Sprintf("pmem jit total %.1fus not below aot total %.1fus", jit, aot)
	}
	t.Error(last)
}
