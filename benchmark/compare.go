package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// row is one (workload, metric) line of a comparison.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base"`
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio"` // new / base
	Bound    float64 `json:"bound,omitempty"`
	// Status is "ok", "regressed" (worse than base by more than the
	// bound) or "unresolved" (not regressed, but one side's own trials
	// spread wider than the bound, so "unchanged" cannot be claimed).
	// Per-layer metrics carry no status.
	Status string `json:"status,omitempty"`
}

// failedFrac is the row name of failed / attempted ops, the issue's tenth
// end-to-end metric. Its bound is 0: it may not rise.
const failedFrac = "failed_frac"

// worsening is how much worse n is than base as a share of base, in the
// metric's own direction; negative when n is better. Any move away from
// a base of 0 is infinitely large.
func worsening(d metricDef, base, n float64) float64 {
	if base == 0 && n == 0 {
		return 0
	}
	delta := (n - base) / math.Abs(base)
	if d.Better == "higher" {
		delta = -delta
	}
	return delta
}

func status(d metricDef, base, n value) string {
	switch {
	case worsening(d, base.Value, n.Value) > d.Bound:
		return "regressed"
	case spread(base.Trials) > d.Bound || spread(n.Trials) > d.Bound:
		return "unresolved"
	default:
		return "ok"
	}
}

func (rf *resultFile) workload(name string) *workloadResult {
	for _, w := range rf.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// failedRow gates correctness: the new run regressed if any of its ops or
// checks failed where the base's share of failures was smaller, or if the
// run was marked incorrect for any reason.
func failedRow(bw, nw *workloadResult) row {
	r := row{
		Workload: bw.Workload, Metric: failedFrac, Unit: "frac", Status: "ok",
		Base: frac(float64(bw.Failed), float64(bw.Attempted)), New: frac(float64(nw.Failed), float64(nw.Attempted)),
	}
	r.Ratio = frac(r.New, r.Base)
	if r.New > r.Base || (bw.Correct && !nw.Correct) {
		r.Status = "regressed"
	}
	return r
}

// compareResults pairs the workloads of two result files by name. A base
// workload the new file lacks is a regression, not a row to skip.
func compareResults(base, n *resultFile) []row {
	var rows []row
	for _, bw := range base.Workloads {
		nw := n.workload(bw.Workload)
		if nw == nil {
			rows = append(rows, row{Workload: bw.Workload, Metric: "(not in the new file)", Status: "regressed"})
			continue
		}
		rows = append(rows, failedRow(bw, nw))
		add := func(defs []metricDef, b, m metricSet, gated bool) {
			for _, d := range defs {
				bv, ok1 := b[d.Name]
				nv, ok2 := m[d.Name]
				if !ok1 || !ok2 {
					continue
				}
				r := row{Workload: bw.Workload, Metric: d.Name, Unit: d.Unit, Base: bv.Value, New: nv.Value, Ratio: frac(nv.Value, bv.Value)}
				if gated {
					r.Bound, r.Status = d.Bound, status(d, bv, nv)
				}
				rows = append(rows, r)
			}
		}
		add(endToEnd, bw.EndToEnd, nw.EndToEnd, true)
		add(perLayer, bw.PerLayer, nw.PerLayer, false)
	}
	return rows
}

func printRows(rows []row) (regressed int) {
	fmt.Printf("%-14s %-36s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "status")
	for _, r := range rows {
		bound := ""
		if r.Status != "" {
			bound = fmt.Sprintf("%.2f", r.Bound)
		}
		fmt.Printf("%-14s %-36s %14.4f %14.4f %8.3f %6s  %s\n", r.Workload, r.Metric, r.Base, r.New, r.Ratio, bound, r.Status)
		if r.Status == "regressed" {
			regressed++
		}
	}
	return regressed
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func compareFiles(basePath, newPath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	n, err := readResult(newPath)
	if err != nil {
		return err
	}
	if regressed := printRows(compareResults(base, n)); regressed > 0 {
		return fmt.Errorf("%d rows regressed: an end-to-end metric beyond its bound, failed ops, or a workload gone", regressed)
	}
	return nil
}

// aaFile is the evidence that two sets of runs of the same code agree.
type aaFile struct {
	A    *resultFile `json:"a"`
	B    *resultFile `json:"b"`
	Rows []row       `json:"rows"`
}

// runAA runs the full set twice in one process. Unlike -compare it is
// symmetric: a gated metric that moved by more than its bound in either
// direction fails the run, because neither side is the better code.
func runAA(ctx context.Context, cfg runConfig) error {
	a, err := runAll(ctx, cfg)
	if err != nil {
		return err
	}
	b, err := runAll(ctx, cfg)
	if err != nil {
		return err
	}
	rows := compareResults(a, b)
	differ := 0
	for i := range rows {
		r := &rows[i]
		if r.Status == "" || r.Metric == failedFrac {
			continue // per-layer, or judged by the verdicts below
		}
		r.Status = "ok"
		if r.Base != 0 && math.Abs(r.New-r.Base)/math.Abs(r.Base) > r.Bound {
			r.Status = "differs"
			differ++
		}
	}
	printRows(rows)
	if err := writeJSON(filepath.Join(cfg.results, "aa.json"), aaFile{a, b, rows}); err != nil {
		return err
	}
	if err := a.verdict(); err != nil {
		return err
	}
	if err := b.verdict(); err != nil {
		return err
	}
	if differ > 0 {
		return fmt.Errorf("A/A: %d end-to-end metrics differ by more than their bounds", differ)
	}
	return nil
}
