package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"poseidon/internal/pmem"
)

// counterTrials is how many leading trials feed the count metrics
// (device model, allocations, pmem.*_per_op). They cover a fixed number
// of ops whatever -seconds is, so on a one-client workload the same seed
// gives the same counts on any host.
const counterTrials = 3

// inserted names one entity an acknowledged IU op created.
type inserted struct {
	label string
	id    int64
}

// tally is what one generator observed during a trial.
type tally struct {
	lat                        []float64 // µs per op, retries included
	ops, failed, retries, shed int
	conflicted                 int // ops that hit at least one conflict
	rows                       int
	nodes, rels                int // graph growth implied by acknowledged IU ops
	recent                     []inserted
	firstErr                   error
	genTime                    time.Duration
	srOps                      int
}

func (t *tally) record(e *env, o op, out outcome, lat time.Duration) {
	t.ops++
	t.lat = append(t.lat, us(lat))
	t.retries += out.retries
	if out.retries > 0 {
		t.conflicted++
	}
	if out.shed {
		t.shed++
	}
	if out.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", e.stmtText(o), out.err)
		}
		return
	}
	t.rows += out.rows
	if o.sr {
		t.srOps++
		return
	}
	eff := effectOf(e.iuQ[o.qi])
	t.nodes += eff.nodes
	t.rels += eff.rels
	if eff.label != "" {
		t.recent = append(t.recent, inserted{eff.label, o.params[eff.key].(int64)})
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.ops += o.ops
	t.failed += o.failed
	t.retries += o.retries
	t.shed += o.shed
	t.conflicted += o.conflicted
	t.rows += o.rows
	t.nodes += o.nodes
	t.rels += o.rels
	t.srOps += o.srOps
	t.recent = append(t.recent, o.recent...)
	t.genTime += o.genTime
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// trial is one fixed-op-count measurement across all generators.
type trial struct {
	tally
	wall    time.Duration
	cpu     time.Duration
	dev     pmem.StatsSnapshot
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cpu_us_per_op reads 0; the other metrics are unaffected
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOps drives n ops per runner in a closed loop — each generator sends
// its next op when the previous one has returned — and returns the
// merged tally with the wall time from first send to last reply.
func runOps(ctx context.Context, e *env, runners []*runner, n int) (tally, time.Duration) {
	tallies := make([]tally, len(runners))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range runners {
		wg.Add(1)
		go func(r *runner, t *tally) {
			defer wg.Done()
			t.lat = make([]float64, 0, n)
			for k := 0; k < n; k++ {
				e.beforeOp()
				g0 := time.Now()
				o := r.gen.next()
				t0 := time.Now()
				out := r.do(ctx, o)
				t1 := time.Now()
				t.genTime += t0.Sub(g0)
				t.record(e, o, out, t1.Sub(t0))
			}
		}(r, &tallies[i])
	}
	wg.Wait()
	wall := time.Since(start)
	var all tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	return all, wall
}

// runTrial brackets runOps with the process-wide counters.
func runTrial(ctx context.Context, e *env, runners []*runner, n int) trial {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats := &e.db.Device().Stats
	d0 := stats.Snapshot()
	c0 := cpuTime()
	t, wall := runOps(ctx, e, runners, n)
	c1 := cpuTime()
	d1 := stats.Snapshot()
	runtime.ReadMemStats(&m1)
	return trial{
		tally: t, wall: wall, cpu: c1 - c0, dev: d1.Sub(d0),
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
	}
}

// measured is the outcome of the untraced phase of one workload.
type measured struct {
	warm    tally
	trials  []trial
	all     tally     // every trial merged
	counted trial     // the leading counterTrials merged
	heapMB  float64   // heapInuse at the end of the last trial
	cache   [2]uint64 // statement-cache hits, misses during the trials
}

// measure warms up, then runs fixed-size trials until budget is spent
// (at least counterTrials of them, or exactly fixedTrials when set).
func measure(ctx context.Context, e *env, runners []*runner, budget time.Duration, fixedTrials int) *measured {
	m := &measured{}
	m.warm, _ = runOps(ctx, e, runners, e.w.warmOps)
	runtime.GC()
	cs0 := e.db.CacheStats()
	start := time.Now()
	for {
		if fixedTrials > 0 && len(m.trials) == fixedTrials {
			break
		}
		if fixedTrials == 0 && len(m.trials) >= counterTrials && time.Since(start) >= budget {
			break
		}
		t := runTrial(ctx, e, runners, e.w.trialOps)
		if len(m.trials) < counterTrials {
			m.counted.add(&t)
		}
		m.trials = append(m.trials, t)
		m.all.merge(&t.tally)
	}
	cs1 := e.db.CacheStats()
	m.cache = [2]uint64{cs1.Hits - cs0.Hits, cs1.Misses - cs0.Misses}
	m.heapMB = heapInuse()
	return m
}

// heapInuse is the process's HeapInuse in MiB after a full collection.
func heapInuse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// add folds another trial into t.
func (t *trial) add(o *trial) {
	t.tally.merge(&o.tally)
	t.wall += o.wall
	t.cpu += o.cpu
	t.mallocs += o.mallocs
	t.bytes += o.bytes
	a, b := &t.dev, o.dev
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.LineFlushes += b.LineFlushes
	a.BlockWrites += b.BlockWrites
	a.Drains += b.Drains
}

// trialSeries extracts one per-trial figure from every trial.
func (m *measured) trialSeries(f func(*trial) float64) []float64 {
	out := make([]float64, len(m.trials))
	for i := range m.trials {
		out[i] = f(&m.trials[i])
	}
	return out
}
