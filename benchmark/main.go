// Command benchmark is the repository's one benchmark: four LDBC
// workloads driven from outside through the real stack (client → wire →
// server → Session/Stmt/Rows → query/jit → core → pmemobj → pmem), nine
// gated end-to-end metrics measured with tracing off, and a layer
// ladder that attributes them. See README.md.
//
//	benchmark                                  all workloads, both phases
//	benchmark --workload W --seed N --seconds S --trace 0|1|2
//	benchmark -compare old.json new.json
//	benchmark -aa
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runInfo records where and how a result was produced.
type runInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Persons    int     `json:"persons"`
	Seconds    float64 `json:"seconds"`
	Time       string  `json:"time"`
}

func newRunInfo(cfg runConfig) runInfo {
	info := runInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: cfg.seed, Persons: cfg.persons, Seconds: cfg.seconds,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				info.Commit = s.Value
			}
		}
	}
	return info
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Info      runInfo           `json:"info"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's one-line JSON result (default: all four, both phases)")
		seed    = flag.Int64("seed", 42, "the only randomness input: dataset and op streams derive from it")
		seconds = flag.Float64("seconds", 10, "wall time of the timed trials per workload")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = ladder and probes, per-layer metrics; 2 = both")
		emit    = flag.String("emit", "", "with -workload: also write the workload's full result to this file")
		persons = flag.Int("persons", 1000, "LDBC scale (smoke runs use 50)")
		results = flag.String("results", defaultResultsDir(), "directory for result and trace files")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		aa      = flag.Bool("aa", false, "run the full set twice and fail if any end-to-end metric differs beyond its bound")
	)
	flag.Parse()
	cfg := runConfig{seed: *seed, seconds: *seconds, persons: *persons, pool: defaultPool, results: *results, phase: both}
	ctx := context.Background()

	// Under the driver and from the repository root the contract file is
	// at hand: refuse to measure under names or bounds it does not carry.
	err := checkSpec("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	switch {
	case err != nil:
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *aa:
		err = runAA(ctx, cfg)
	case *name != "":
		err = runContract(ctx, *name, *trace, *emit, cfg)
	default:
		var rf *resultFile
		if rf, err = runAll(ctx, cfg); err == nil {
			err = writeJSON(filepath.Join(cfg.results, "result.json"), rf)
		}
		if err == nil {
			err = rf.verdict()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultResultsDir is benchmark/results from the repository root and
// results from inside the benchmark directory.
func defaultResultsDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark/results"
	}
	return "results"
}

// runAll runs every workload with both phases and prints every metric.
// Each workload gets a process of its own, as under the driver: a device
// view carved from memory an earlier workload has used must first be
// cleared, which costs a later set-up seconds a fresh process never pays.
func runAll(ctx context.Context, cfg runConfig) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rf := &resultFile{Info: newRunInfo(cfg)}
	for _, w := range workloads {
		out := filepath.Join(cfg.results, "."+w.name+".json")
		cmd := exec.CommandContext(ctx, self,
			"-workload", w.name, "-trace", "2", "-emit", out, "-results", cfg.results,
			"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-persons", fmt.Sprint(cfg.persons))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // also non-zero for a wrong result, which still emits
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", w.name, runErr)
		}
		_ = os.Remove(out) // a leftover scratch file is harmless
		res := &workloadResult{}
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rf.Workloads = append(rf.Workloads, res)
	}
	return rf, nil
}

// verdict is the run's exit status: any failed op or check fails it.
func (rf *resultFile) verdict() error {
	for _, r := range rf.Workloads {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d ops or checks failed: %v", r.Workload, r.Failed, r.Attempted, r.Problems)
		}
	}
	return nil
}

func printResult(r *workloadResult, took time.Duration) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d trials=%d×%d ops (%.1fs)\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, r.Trials, r.OpsPerTrial, took.Seconds())
	for _, p := range r.Problems {
		fmt.Printf("   problem: %s\n", p)
	}
	printSet := func(defs []metricDef, m metricSet) {
		for _, d := range defs {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("   %-36s %14.4f %-6s n=%d", d.Name, v.Value, v.Unit, v.N)
			if len(v.Trials) > 1 {
				fmt.Printf("  trials=%d spread=%.3f", len(v.Trials), spread(v.Trials))
			}
			fmt.Println()
		}
	}
	printSet(endToEnd, r.EndToEnd)
	printSet(perLayer, r.PerLayer)
}

// contractLine is the last line of standard output in -workload mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is the driver's entry: one workload, one JSON object as
// the last line. A wrong result still prints its line (with
// correct=false) and then exits non-zero.
func runContract(ctx context.Context, name string, trace int, emit string, cfg runConfig) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg.phase = phase(trace)
	if cfg.phase < untracedOnly || cfg.phase > both {
		return fmt.Errorf("-trace must be 0, 1 or 2")
	}
	t0 := time.Now()
	res, err := runWorkload(ctx, w, cfg)
	if err != nil {
		return err
	}
	printResult(res, time.Since(t0))
	if emit != "" {
		if err := writeJSON(emit, res); err != nil {
			return err
		}
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, set := range []metricSet{res.EndToEnd, res.PerLayer} {
		for k, v := range set {
			line.Metrics[k] = contractValue{v.Value, v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops or checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}
