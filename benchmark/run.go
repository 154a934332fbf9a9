package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"poseidon/internal/pmem"
)

// phase selects which halves of a workload run execute.
type phase int

// The values are the -trace flag's.
const (
	untracedOnly phase = iota // end-to-end metrics, tracing off
	tracedOnly                // a short untraced phase, then ladder and probes
	both
)

// runConfig is one workload run's input; seed is the only randomness.
// Only the smoke test sets pool, trialOps and trials: they change what is
// measured and no result records them, so no flag reaches them.
type runConfig struct {
	seed     int64
	seconds  float64
	persons  int
	pool     int // device capacity in bytes; defaultPool
	trialOps int // 0 = the workload's own fixed count
	trials   int // 0 = as many as fit in seconds
	phase    phase
	results  string // directory for trace files
}

// workloadResult is one workload's row in a result file.
type workloadResult struct {
	Workload    string    `json:"workload"`
	Correct     bool      `json:"correct"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Problems    []string  `json:"problems,omitempty"`
	Trials      int       `json:"trials"`
	OpsPerTrial int       `json:"ops_per_trial"`
	EndToEnd    metricSet `json:"end_to_end,omitempty"`
	PerLayer    metricSet `json:"per_layer,omitempty"`
}

// gcPercent replaces the default GOGC of 100 for the benchmark process.
// The two views (CPU and media) of the 1 GiB simulated device are 2 GiB
// of Go heap that a deployment on real persistent memory would not have,
// and the pacer counts them as live: at 100 it would wait for 2.6 GB of
// garbage, longer than a run, so no collection would ever happen and the
// trials would measure the kernel's page-fault path (20 % of sr_inproc).
// 4 paces on ~100 MiB of allocation per cycle, which is what the default
// would do on the heap that is really the engine's and the dataset's
// (heap_inuse_mb, 120–150 MiB). Longer cycles also measure worse: 500 MiB
// of fresh allocation does not stay in the host's shared last-level
// cache, so a trial is as fast or slow as the part of the cycle it falls
// in (the first trial after a collection runs 25 % faster on sr_inproc,
// 2× on scan_adaptive) and as the host's other tenants leave it.
const gcPercent = 4

// checkOps is how many sampled reads are compared with the disk baseline
// before the trials; the scans cost ~40 ms each, so they get fewer.
func (w *workload) checkOps() int {
	if !w.indexed {
		return 48
	}
	return 200
}

// runWorkload sets up, checks, measures, optionally climbs the ladder,
// and finishes with the growth and power-failure checks.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*workloadResult, error) {
	w = w.scale(cfg.trialOps)
	debug.SetGCPercent(gcPercent)

	// Set-up is repeated so setup_s can be a median; the last one is kept.
	// The earlier databases stay allocated until the last is up: a device
	// view carved from recycled heap would first be cleared, 2 GiB of
	// memclr that a process setting up once never pays.
	setups := 5
	if cfg.phase == tracedOnly {
		setups = 1
	}
	var e *env
	var setupS []float64
	var spent []*env
	heapStart, heapOne := heapInuse(), 0.0
	for i := 0; i < setups; i++ {
		if e != nil {
			_ = e.stopServer() // nothing was served; only the listener closes
			e.db.Close()
			spent = append(spent, e)
		}
		var err error
		if e, err = setup(w, cfg.seed, cfg.persons, cfg.pool); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, e.times.total.Seconds())
		if i == 0 {
			heapOne = heapInuse() - heapStart
		}
	}
	debug.FreeOSMemory()  // the closed databases go now: nothing below refers to spent
	heapUp := heapInuse() // one live database, and what the closed ones cannot give back
	defer func() {
		if e.db != nil {
			e.close()
		}
	}()
	baseNodes, baseRels := e.db.NodeCount(), e.db.RelCount()

	runners := make([]*runner, w.clients)
	for i := range runners {
		r, err := newRunner(e, cfg.seed*1000+int64(i), i+1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		defer r.close()
		runners[i] = r
	}

	var chk checks
	if err := chk.checkAgainstDisk(ctx, e, runners[0], cfg.seed+7, min(w.checkOps(), 4*w.trialOps)); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.phase == tracedOnly {
		budget /= 2
	}
	m := measure(ctx, e, runners, budget, cfg.trials)

	res := &workloadResult{Workload: w.name, Trials: len(m.trials), OpsPerTrial: w.trialOps * w.clients}
	phases := []*tally{&m.warm, &m.all}
	if cfg.phase != tracedOnly {
		// heap_inuse_mb is the heap one set-up and the run hold without the
		// simulated device: one set-up's growth, plus the run's growth over
		// the five set-ups, minus the device's two views of its capacity.
		heap := heapOne + (m.heapMB - heapUp) - 2*float64(cfg.pool)/(1<<20)
		res.EndToEnd = endToEndMetrics(m, setupS, heap)
	}
	if cfg.phase != untracedOnly {
		ld, err := newLadder(e, cfg.seed*1000+500)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := ld.runAll(ctx); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
		phases = append(phases, &ld.t)
		res.PerLayer = metricSet{}
		if err := layerMetrics(ctx, e, m, ld, cfg.seed, res.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeTrace(cfg, w, ld); err != nil {
			return nil, err
		}
	}

	recent := chk.checkGrowth(e, baseNodes, baseRels, phases...)
	for _, r := range runners {
		r.close()
	}
	if err := e.stopServer(); err != nil {
		return nil, fmt.Errorf("%s: server drain: %w", w.name, err)
	}
	if err := chk.checkDurability(e, recent); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	for _, t := range phases {
		res.Attempted += t.ops
		res.Failed += t.failed
		if t.firstErr != nil && len(res.Problems) < 10 {
			res.Problems = append(res.Problems, t.firstErr.Error())
		}
	}
	res.Attempted += chk.attempted
	res.Failed += chk.failed
	res.Problems = append(res.Problems, chk.problems...)
	res.Correct = res.Failed == 0
	if res.PerLayer != nil {
		res.PerLayer.set(perLayer, "core.recover_ms", float64(chk.recover)/1e6, 1, nil)
		res.PerLayer.set(perLayer, "core.fsck_violations", float64(chk.fsckViolations), 1, nil)
		res.PerLayer.set(perLayer, "bench.failed_frac", frac(float64(res.Failed), float64(res.Attempted)), res.Attempted, nil)
		res.PerLayer.complete(perLayer)
	}
	return res, nil
}

// endToEndMetrics turns the trials into the gated metrics. Timings are
// the median over trials of the per-trial value; counts come from the
// fixed leading trials.
func endToEndMetrics(m *measured, setupS []float64, heapMB float64) metricSet {
	out := metricSet{}
	prof := pmem.PMemProfile()
	perTrial := m.trials[0].ops
	series := func(name string, f func(*trial) float64) {
		s := m.trialSeries(f)
		out.set(endToEnd, name, median(s), perTrial, s)
	}
	out.set(endToEnd, "setup_s", median(setupS), len(setupS), setupS)
	series("ops_per_s", func(t *trial) float64 { return float64(t.ops) / t.wall.Seconds() })
	series("p50_us", func(t *trial) float64 { return percentile(t.lat, 0.50) })
	series("p95_us", func(t *trial) float64 { return percentile(t.lat, 0.95) })
	series("cpu_us_per_op", func(t *trial) float64 { return perOp(us(t.cpu), t.ops) })
	c := &m.counted
	out.set(endToEnd, "device_model_us_per_op", perOp(us(deviceModel(c.dev, prof)), c.ops), c.ops, nil)
	out.set(endToEnd, "allocs_per_op", perOp(float64(c.mallocs), c.ops), c.ops, nil)
	out.set(endToEnd, "bytes_per_op", perOp(float64(c.bytes), c.ops), c.ops, nil)
	out.set(endToEnd, "heap_inuse_mb", heapMB, 1, nil)
	return out
}

// layerMetrics fills the per-layer set from the untraced counters, the
// ladder and the probes.
func layerMetrics(ctx context.Context, e *env, m *measured, ld *ladder, seed int64, out metricSet) error {
	set := func(name string, v float64, n int) { out.set(perLayer, name, v, n, nil) }
	prof := pmem.PMemProfile()

	// Counts of the untraced trials, where the work happened.
	c := &m.counted
	d := c.dev
	set("pmem.reads_per_op", perOp(float64(d.Reads), c.ops), c.ops)
	set("pmem.writes_per_op", perOp(float64(d.Writes), c.ops), c.ops)
	set("pmem.cache_miss_per_op", perOp(float64(d.CacheMisses), c.ops), c.ops)
	set("pmem.cache_hit_frac", frac(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)), c.ops)
	set("pmem.line_flushes_per_op", perOp(float64(d.LineFlushes), c.ops), c.ops)
	set("pmem.block_writes_per_op", perOp(float64(d.BlockWrites), c.ops), c.ops)
	set("pmem.drains_per_op", perOp(float64(d.Drains), c.ops), c.ops)
	set("pmem.spin_share", frac(float64(deviceModel(d, prof)), float64(c.cpu)), c.ops)
	set("query.rows_per_op", perOp(float64(c.rows), c.ops), c.ops)
	set("query.reads_per_row", perOp(float64(d.Reads), c.rows), c.rows)

	all := &m.all
	set("core.conflict_frac", frac(float64(all.conflicted), float64(all.ops)), all.ops)
	set("core.retries_per_op", perOp(float64(all.retries), all.ops), all.ops)
	set("server.shed_frac", frac(float64(all.shed), float64(all.ops)), all.ops)
	set("client.p99_us", percentile(all.lat, 0.99), len(all.lat))
	set("client.p999_us", percentile(all.lat, 0.999), len(all.lat))
	set("client.max_us", percentile(all.lat, 1), len(all.lat))
	set("bench.generator_us_per_op", perOp(us(all.genTime), all.ops), all.ops)
	set("poseidon.stmt_cache_hit_frac", frac(float64(m.cache[0]), float64(m.cache[0]+m.cache[1])), int(m.cache[0]+m.cache[1]))

	pool := e.db.Engine().Pool()
	entities := e.db.NodeCount() + e.db.RelCount()
	set("pmemobj.heap_used_mb", float64(pool.HeapUsed())/(1<<20), 1)
	set("pmemobj.heap_bytes_per_entity", perOp(float64(pool.HeapUsed()), int(entities)), int(entities))

	st := e.times
	set("ldbc.generate_s", st.generate.Seconds(), 1)
	set("ldbc.load_s", st.load.Seconds(), 1)
	set("ldbc.load_entities_per_s", float64(st.entities)/st.load.Seconds(), st.entities)
	set("ldbc.load_drains_per_entity", perOp(float64(st.loadStats.Drains), st.entities), st.entities)

	// The ladder: means over the matched ops, so the rungs add up.
	n := len(ld.ops)
	reads := countSR(ld.ops)
	set("core.begin_us", mean(ld.begin), n)
	set("exec.run_us", mean(ld.run), n)
	set("core.commit_us", ld.classMean(ld.end, false), n-reads)
	set("core.abort_us", ld.classMean(ld.end, true), reads)
	set("query.exec_iu_us", ld.classMean(ld.run, false), n-reads)
	set("poseidon.session_us", mean(ld.session), n)
	set("poseidon.session_self_us", mean(ld.session)-mean(ld.begin)-mean(ld.run)-mean(ld.end), n)
	set("bench.trace_overhead_frac", 1-frac(ld.tracedOpsPerS, ld.untracedOpsPerS), n)
	if e.w.wire {
		set("client.request_us", mean(ld.request), n)
		set("wire.codec_us", mean(ld.codec), n)
		set("server.self_us", mean(ld.request)-mean(ld.session)-mean(ld.codec), n)
		set("wire.bytes_per_op", perOp(float64(ld.wireBytes), n), n)
		set("wire.frames_per_op", perOp(float64(ld.wireFrames), n), n)
		for _, k := range []string{"encode_run", "decode_run", "encode_record", "decode_record"} {
			set("wire."+k+"_ns", median(ld.codecSamples[k]), len(ld.codecSamples[k]))
		}
	}

	probes := map[string]float64{}
	probeDevice(probes)
	if err := probePool(probes); err != nil {
		return err
	}
	if err := probeEngine(e, seed, probes); err != nil {
		return err
	}
	if err := probeJIT(ctx, ld, probes); err != nil {
		return err
	}
	if err := probeFacade(e, probes); err != nil {
		return err
	}
	for name, v := range probes {
		set(name, v, probeBatches)
	}
	return nil
}

// countSR counts the reads of a replay slice.
func countSR(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.sr {
			n++
		}
	}
	return n
}

// traceFile is the on-disk form of one workload's ladder.
type traceFile struct {
	Workload string            `json:"workload"`
	Info     runInfo           `json:"info"`
	Ops      []string          `json:"ops"` // statement of each replayed op, by op id
	Rungs    map[string][]span `json:"rungs"`
}

func writeTrace(cfg runConfig, w *workload, ld *ladder) error {
	tf := traceFile{Workload: w.name, Info: newRunInfo(cfg), Rungs: ld.rungs}
	for _, o := range ld.ops {
		tf.Ops = append(tf.Ops, ld.e.stmtText(o))
	}
	return writeJSON(filepath.Join(cfg.results, "trace-"+w.name+".json"), tf)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
