package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"poseidon/client"
	"poseidon/internal/core"
	"poseidon/internal/ldbc"
	"poseidon/internal/pmem"
	"poseidon/internal/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30, 60, 100, 90, 80, 70}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.1, 10}, {1, 100}, {0.01, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v", got)
	}
	// Median of trials: odd count picks the middle trial, even count the
	// mean of the two middle ones; one slow trial does not move it.
	if got := median([]float64{9000, 8600, 2000, 8700, 8800}); got != 8700 {
		t.Errorf("median of 5 trials = %v, want 8700", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// spread follows Python's statistics.quantiles(v, n=4): for 1..10 the
	// quartiles are 2.75 and 8.25, the median 5.5.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping: 40
	// covered once) and 70..120 (clipped to the root: 30 covered);
	// the grandchild lies under the first child.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "c", Parent: 0, Start: 70, End: 120},
		{Name: "a1", Parent: 1, Start: 12, End: 17},
		{Name: "other-root", Parent: -1, Start: 200, End: 260},
	}
	fillSelf(spans)
	want := []int64{30, 15, 30, 50, 5, 60}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, spans[i].Self, w)
		}
	}
	got := perOpSum([]span{{Name: "x", Op: 1, Start: 0, End: 2000}, {Name: "x", Op: 1, Start: 0, End: 500}, {Name: "y", Op: 0, End: 9}}, "x", 2)
	if got[0] != 0 || got[1] != 2.5 {
		t.Errorf("perOpSum = %v, want [0 2.5]", got)
	}
}

func TestDeviceModel(t *testing.T) {
	p := pmem.PMemProfile() // 220 / 150 / 30 / 400 ns
	cases := []struct {
		d    pmem.StatsSnapshot
		want time.Duration
	}{
		{pmem.StatsSnapshot{}, 0},
		{pmem.StatsSnapshot{Reads: 1000, CacheHits: 974, CacheMisses: 26}, 26 * 220},
		// 47 line flushes of which 30 opened a new 256-byte block.
		{pmem.StatsSnapshot{CacheMisses: 2, LineFlushes: 47, BlockWrites: 30, Drains: 14}, 2*220 + 30*150 + 17*30 + 14*400},
		// Counters read mid-update must not underflow the marginal term.
		{pmem.StatsSnapshot{LineFlushes: 3, BlockWrites: 4}, 4 * 150},
	}
	for _, c := range cases {
		if got := deviceModel(c.d, p); got != c.want*time.Nanosecond {
			t.Errorf("deviceModel(%+v) = %v, want %v", c.d, got, c.want*time.Nanosecond)
		}
	}
	if got := deviceModel(pmem.StatsSnapshot{CacheMisses: 9, Drains: 9}, pmem.DRAMProfile()); got != 0 {
		t.Errorf("DRAM profile models %v, want 0", got)
	}
}

func TestRetryAndFailureAccounting(t *testing.T) {
	e := newEnv(workloads[2])
	sr2 := op{sr: true, qi: 1} // any row count is possible
	sr1 := op{sr: true, qi: 0} // must return exactly one row
	iu1 := op{qi: 0, params: map[string]any{"personId": int64(77)}}
	conflict := fmt.Errorf("wrapped: %w", core.ErrAborted)
	wireConflict := &client.ServerError{Code: wire.CodeConflict}
	fails := func(errs ...error) func() (int, error) {
		i := 0
		return func() (int, error) {
			if i < len(errs) {
				i++
				return 0, errs[i-1]
			}
			return 1, nil
		}
	}
	exhausted := make([]error, maxRetries+1)
	for i := range exhausted {
		exhausted[i] = conflict
	}
	boom := errors.New("boom")
	cases := []struct {
		name    string
		o       op
		attempt func() (int, error)
		retries int
		failed  bool
		shed    bool
	}{
		{"first try", sr2, fails(), 0, false, false},
		{"two conflicts then ok", sr2, fails(conflict, wireConflict), 2, false, false},
		{"retries exhausted", sr2, fails(exhausted...), maxRetries, true, false},
		{"other error is not retried", sr2, fails(boom), 0, true, false},
		{"shed by admission", sr2, fails(&client.ServerError{Code: wire.CodeQueueFull}), 0, true, true},
		{"result check", sr1, func() (int, error) { return 2, nil }, 0, true, false},
		{"insert that did nothing", iu1, func() (int, error) { return 0, nil }, 0, true, false},
		{"acknowledged insert", iu1, fails(conflict), 1, false, false},
	}
	var tl tally
	for _, c := range cases {
		out := retrying(e, c.o, c.attempt)
		if out.retries != c.retries || (out.err != nil) != c.failed || out.shed != c.shed {
			t.Errorf("%s: retries=%d err=%v shed=%v; want retries=%d failed=%v shed=%v",
				c.name, out.retries, out.err, out.shed, c.retries, c.failed, c.shed)
		}
		tl.record(e, c.o, out, time.Microsecond)
	}
	// Only the acknowledged IU 1 (a person, two relationships) grows the
	// graph; failed ops leave no trace in rows or growth.
	if tl.ops != 8 || tl.failed != 5 || tl.retries != 3+maxRetries || tl.conflicted != 3 || tl.shed != 1 {
		t.Errorf("tally = ops %d failed %d retries %d conflicted %d shed %d", tl.ops, tl.failed, tl.retries, tl.conflicted, tl.shed)
	}
	if tl.nodes != 1 || tl.rels != 2 || len(tl.recent) != 1 || tl.recent[0] != (inserted{"Person", 77}) {
		t.Errorf("growth = %d nodes %d rels %v", tl.nodes, tl.rels, tl.recent)
	}
	if tl.firstErr == nil || len(tl.lat) != 8 {
		t.Errorf("firstErr=%v samples=%d", tl.firstErr, len(tl.lat))
	}
}

func TestOpStreamIsSeededAndBalanced(t *testing.T) {
	ds := ldbc.Generate(ldbc.Config{Persons: 30, Seed: 5})
	e := newEnv(workloads[2])
	e.ds = ds
	a, b, other := newOpGen(e, 9, 1), newOpGen(e, 9, 2), newOpGen(e, 10, 1)
	sr, perQuery, differs := 0, map[int]int{}, false
	for i := 0; i < 600; i++ {
		x, y, z := a.next(), b.next(), other.next()
		if x.sr != y.sr || x.qi != y.qi {
			t.Fatalf("op %d: same seed dealt %+v and %+v", i, x, y)
		}
		if x.sr != z.sr || x.qi != z.qi {
			differs = true
		}
		if x.sr {
			sr++
			perQuery[x.qi]++
			if fmt.Sprint(x.params) != fmt.Sprint(y.params) {
				t.Fatalf("op %d: same seed picked %v and %v", i, x.params, y.params)
			}
		} else if id, ok := x.params["personId"].(int64); ok && x.qi == 0 && id == y.params["personId"] {
			t.Fatalf("op %d: partitions 1 and 2 share fresh id %d", i, id)
		}
	}
	if sr != 480 {
		t.Errorf("%d of 600 ops are reads, want exactly 480", sr)
	}
	for q, n := range perQuery {
		if n != 40 {
			t.Errorf("SR query %d dealt %d times, want 40", q, n)
		}
	}
	if !differs {
		t.Error("seed 10 dealt the same stream as seed 9")
	}
}

func TestCompareStatus(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 130, 80, 100, 125}
	cases := []struct {
		d         metricDef
		base, new value
		want      string
	}{
		{lower, value{Value: 100, Trials: steady}, value{Value: 109, Trials: steady}, "ok"},
		{lower, value{Value: 100, Trials: steady}, value{Value: 111, Trials: steady}, "regressed"},
		{lower, value{Value: 100, Trials: steady}, value{Value: 50, Trials: steady}, "ok"},
		{higher, value{Value: 100, Trials: steady}, value{Value: 89, Trials: steady}, "regressed"},
		{higher, value{Value: 100, Trials: steady}, value{Value: 150, Trials: steady}, "ok"},
		{lower, value{Value: 100, Trials: noisy}, value{Value: 104, Trials: steady}, "unresolved"},
		{lower, value{Value: 100}, value{Value: 100}, "ok"}, // counts carry no trials
		{lower, value{}, value{}, "ok"},
		{lower, value{}, value{Value: 0.001}, "regressed"}, // any rise from 0
		{higher, value{}, value{Value: 5}, "ok"},
	}
	for i, c := range cases {
		if got := status(c.d, c.base, c.new); got != c.want {
			t.Errorf("case %d: status = %q, want %q", i, got, c.want)
		}
	}
	run := func(p50 float64, attempted, failed int) *workloadResult {
		return &workloadResult{
			Workload: "w", Correct: failed == 0, Attempted: attempted, Failed: failed,
			EndToEnd: metricSet{"p50_us": {Value: p50}}, PerLayer: metricSet{"core.begin_us": {Value: p50 / 50}},
		}
	}
	file := func(w ...*workloadResult) *resultFile { return &resultFile{Workloads: w} }
	statuses := func(rows []row) string {
		s := ""
		for _, r := range rows {
			s += r.Metric + "=" + r.Status + " "
		}
		return s
	}
	base := file(run(100, 1000, 0))
	for _, c := range []struct {
		name string
		n    *resultFile
		want string
	}{
		{"slower", file(run(130, 1000, 0)), "failed_frac=ok p50_us=regressed core.begin_us= "},
		{"same speed, one failed op", file(run(100, 1000, 1)), "failed_frac=regressed p50_us=ok core.begin_us= "},
		{"marked incorrect with no failed op", file(&workloadResult{Workload: "w", Attempted: 1000}), "failed_frac=regressed "},
		{"workload gone", file(&workloadResult{Workload: "other", Correct: true, Attempted: 1}), "(not in the new file)=regressed "},
	} {
		rows := compareResults(base, c.n)
		if got := statuses(rows); got != c.want {
			t.Errorf("%s: rows %q, want %q", c.name, got, c.want)
		}
		if printRows(rows) == 0 {
			t.Errorf("%s: -compare would exit 0", c.name)
		}
	}
	// A base that already failed some ops tolerates that share, no more.
	flaky := file(run(100, 1000, 10))
	if rows := compareResults(flaky, file(run(100, 2000, 20))); rows[0].Status != "ok" {
		t.Errorf("same failed share: %+v", rows[0])
	}
	if rows := compareResults(flaky, file(run(100, 1000, 11))); rows[0].Status != "regressed" {
		t.Errorf("higher failed share: %+v", rows[0])
	}
	rows := compareResults(base, file(run(130, 1000, 0)))
	if !near(rows[1].Ratio, 1.3) || !near(rows[2].Ratio, 1.3) {
		t.Errorf("ratios = %+v", rows)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go
// and workload.go in step, and the tables within the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	if err := checkSpec("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	setup, largest := 0.0, 0.0
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setup = d.Bound
		}
		largest = math.Max(largest, d.Bound)
	}
	if setup == 0 || setup != largest || largest > maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v) and at most %v", setup, largest, maxBound)
	}
}

// TestSmoke runs all four workloads end to end at a tiny scale: set-up,
// disk-baseline check, trials, ladder, probes, growth check, crash,
// recovery and fsck.
func TestSmoke(t *testing.T) {
	start := time.Now()
	cfg := runConfig{seed: 3, seconds: 1, persons: 50, pool: 64 << 20, trialOps: 200, trials: 2, phase: both, results: t.TempDir()}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if res.Trials != 2 {
			t.Errorf("%s: %d trials, want 2", w.name, res.Trials)
		}
		for _, d := range endToEnd {
			v, ok := res.EndToEnd[d.Name]
			// 50 persons fit the simulated CPU cache: reads never miss.
			fits := d.Name == "device_model_us_per_op" && w.name == "sr_inproc"
			if !ok || (v.Value <= 0 && !fits) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %+v", w.name, d.Name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v", w.name, d.Name, v)
			}
		}
		zero := []string{"core.fsck_violations", "bench.failed_frac"}
		if w.srOf5 == 5 {
			zero = append(zero, "pmem.drains_per_op", "pmem.line_flushes_per_op", "pmem.writes_per_op")
		}
		if w.clients == 1 {
			zero = append(zero, "core.conflict_frac")
		}
		for _, name := range zero {
			if v := res.PerLayer[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, name, v)
			}
		}
		if w.wire && res.PerLayer["client.request_us"].Value <= res.PerLayer["poseidon.session_us"].Value {
			t.Errorf("%s: a wire request (%v us) is not slower than its session call (%v us)",
				w.name, res.PerLayer["client.request_us"].Value, res.PerLayer["poseidon.session_us"].Value)
		}
		if _, err := os.Stat(cfg.results + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
}
