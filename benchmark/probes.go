package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/index"
	"poseidon/internal/pmem"
	"poseidon/internal/pmemobj"
	"poseidon/internal/query"
	"poseidon/internal/storage"
)

// Probes time one layer's public functions in isolation. Each figure is
// the median over probeBatches batches of the mean call time within a
// batch, so a timer read is amortised over many nanosecond-scale calls.
const probeBatches = 21

// batched returns the median per-call time in ns of fn, called per times
// in each of probeBatches batches. i counts calls across batches.
func batched(per int, fn func(i int)) float64 {
	means := make([]float64, probeBatches)
	i := 0
	for b := range means {
		t0 := time.Now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		means[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(means)
}

// sink keeps probe loads alive.
var sink atomic.Uint64

// probeDevice fills pmem.load_hit_ns, load_miss_ns, persist_line_ns and
// sim_tax_ns on fresh devices.
func probeDevice(out map[string]float64) {
	const size = 64 << 20
	dev := pmem.NewPMem(size)
	out["pmem.load_hit_ns"] = batched(2000, func(int) { sink.Add(dev.ReadU64(4096)) })
	// A sequential sweep over 16× the 4 MiB simulated cache never finds
	// its line resident.
	lines := uint64(size / pmem.LineSize)
	out["pmem.load_miss_ns"] = batched(500, func(i int) {
		sink.Add(dev.ReadU64(uint64(i) % lines * pmem.LineSize))
	})
	out["pmem.persist_line_ns"] = batched(300, func(i int) {
		off := uint64(i) % lines * pmem.LineSize
		dev.WriteU64(off, uint64(i))
		dev.Persist(off, 8)
	})

	// The simulator's own tax: a zero-latency device load (bounds check,
	// shared counter, strict-mode hook) against the atomic slice load it
	// wraps.
	dram := pmem.NewDRAM(1 << 20)
	raw := make([]uint64, 1<<17)
	words := uint64(len(raw))
	viaDev := batched(20000, func(i int) { sink.Add(dram.ReadU64(uint64(i) % words * 8)) })
	direct := batched(20000, func(i int) { sink.Add(atomic.LoadUint64(&raw[uint64(i)%words])) })
	out["pmem.sim_tax_ns"] = viaDev - direct
}

// probePool fills pmemobj.tx_us, tx_drains, alloc_us and index.insert_us
// on a fresh pool, so the database under test is not disturbed.
func probePool(out map[string]float64) error {
	dev := pmem.NewPMem(64 << 20)
	pool, err := pmemobj.Create(dev, pmemobj.Options{})
	if err != nil {
		return fmt.Errorf("probe pool: %w", err)
	}
	defer pool.Close()
	obj, err := pool.Alloc(64)
	if err != nil {
		return fmt.Errorf("probe pool: %w", err)
	}
	const txPer = 100
	d0 := dev.Stats.Snapshot()
	var txErr error
	out["pmemobj.tx_us"] = batched(txPer, func(i int) {
		if err := pool.RunTx(func(tx *pmemobj.Tx) error {
			if err := tx.Snapshot(obj, 64); err != nil {
				return err
			}
			dev.WriteU64(obj, uint64(i))
			return nil
		}); err != nil {
			txErr = err
		}
	}) / 1e3
	if txErr != nil {
		return fmt.Errorf("probe tx: %w", txErr)
	}
	out["pmemobj.tx_drains"] = float64(dev.Stats.Snapshot().Sub(d0).Drains) / (txPer * probeBatches)

	var allocErr error
	out["pmemobj.alloc_us"] = batched(100, func(int) {
		if _, err := pool.Alloc(64); err != nil {
			allocErr = err
		}
	}) / 1e3
	if allocErr != nil {
		return fmt.Errorf("probe alloc: %w", allocErr)
	}

	tree, err := index.Create(index.Hybrid, pool, index.Options{})
	if err != nil {
		return fmt.Errorf("probe index: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	var insErr error
	out["index.insert_us"] = batched(200, func(i int) {
		if err := tree.Insert(storage.IntValue(rng.Int63n(1<<40)), uint64(i)); err != nil {
			insErr = err
		}
	}) / 1e3
	if insErr != nil {
		return fmt.Errorf("probe index insert: %w", insErr)
	}
	return nil
}

// probeEngine times index, dictionary and core calls on the loaded
// database: lookups on the hybrid Person.id tree, dictionary hits, MVTO
// point reads and a one-property update with its commit.
func probeEngine(e *env, seed int64, out map[string]float64) error {
	eng := e.db.Engine()
	dev := eng.Device()
	rng := rand.New(rand.NewSource(seed))
	person := func() storage.Value {
		return storage.IntValue(e.ds.PersonIDs[rng.Intn(len(e.ds.PersonIDs))])
	}

	ref, ok := eng.IndexFor("Person", "id")
	if !ok {
		return fmt.Errorf("probe: no Person.id index")
	}
	const lookups = 200
	d0 := dev.Stats.Snapshot()
	var nodes []uint64
	out["index.lookup_us"] = batched(lookups, func(int) {
		nodes = append(nodes[:0], ref.Lookup(person())...)
	}) / 1e3
	out["index.lookup_reads"] = float64(dev.Stats.Snapshot().Sub(d0).Reads) / (lookups * probeBatches)
	if len(nodes) != 1 {
		return fmt.Errorf("probe: Person.id lookup returned %d nodes", len(nodes))
	}

	d := eng.Dict()
	var code uint64
	out["dict.lookup_ns"] = batched(2000, func(int) { code, _ = d.Lookup("Person") })
	var decErr error
	out["dict.decode_ns"] = batched(2000, func(int) {
		if _, err := d.Decode(code); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("probe dict: %w", decErr)
	}

	ids := make([]uint64, 64)
	for i := range ids {
		got := ref.Lookup(person())
		if len(got) != 1 {
			return fmt.Errorf("probe: person lookup returned %d nodes", len(got))
		}
		ids[i] = got[0]
	}
	tx := eng.Begin()
	var getErr error
	out["core.get_node_us"] = batched(200, func(i int) {
		if _, err := tx.GetNode(ids[i%len(ids)]); err != nil {
			getErr = err
		}
	}) / 1e3
	tx.Abort()
	if getErr != nil {
		return fmt.Errorf("probe GetNode: %w", getErr)
	}

	var updErr error
	out["core.update_commit_us"] = batched(20, func(i int) {
		if err := updateOne(eng, ids[i%len(ids)], i); err != nil {
			updErr = err
		}
	}) / 1e3
	if updErr != nil {
		return fmt.Errorf("probe update: %w", updErr)
	}
	return nil
}

func updateOne(eng *core.Engine, id uint64, i int) error {
	tx := eng.Begin()
	if err := tx.SetNodeProps(id, map[string]any{"browserUsed": browsers[i%len(browsers)]}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

var browsers = []string{"Firefox", "Chrome", "Safari", "Opera"}

// probeFacade fills poseidon.prepare_hit_us and cypher.prepare_miss_us.
// The misses churn the statement LRU, so this probe runs last.
func probeFacade(e *env, out map[string]float64) error {
	var err error
	plan := e.srPlans[0]
	out["poseidon.prepare_hit_us"] = batched(200, func(int) {
		if _, perr := e.db.PreparePlan(plan); perr != nil {
			err = perr
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("probe prepare: %w", err)
	}
	out["cypher.prepare_miss_us"] = batched(10, func(i int) {
		src := fmt.Sprintf("MATCH (p:Person {id: %d})-[:knows]->(f) RETURN f.firstName ORDER BY f.firstName", 1_000_000+i)
		if _, perr := e.db.Prepare(src); perr != nil {
			err = perr
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("probe cypher prepare: %w", err)
	}
	return nil
}

// probeJIT replays the read ops of the ladder slice three ways on the
// benchmark's own transactions — interpreted, JIT-compiled with a hot
// code cache, adaptive — and compiles each plan from scratch, which
// together give the compile-versus-execute break-even.
func probeJIT(ctx context.Context, ld *ladder, out map[string]float64) error {
	e := ld.e
	eng := e.db.Engine()
	limit := 240
	var ops []op
	for _, o := range ld.ops {
		if o.sr && len(ops) < limit {
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		return nil
	}
	drop := func(query.Row) bool { return true }
	var runs, hits, compiled, morselsCompiled, morselsInterp int
	seen := map[int]bool{}
	modes := []func(tx *core.Tx, o op) error{
		func(tx *core.Tx, o op) error { // interpreted
			return ld.srPrep[o.qi].RunCtx(ctx, tx, o.params, drop)
		},
		func(tx *core.Tx, o op) error { // compiled
			st, err := ld.jit.RunCtx(ctx, tx, e.srPlans[o.qi], o.params, drop)
			runs++
			if seen[o.qi] || st.FromCache {
				hits++ // served by the in-memory or the persistent code cache
			}
			seen[o.qi] = true
			if st.Compiled {
				compiled++
			}
			return err
		},
		func(tx *core.Tx, o op) error { // adaptive
			st, err := ld.jit.RunAdaptiveCtx(ctx, tx, e.srPlans[o.qi], o.params, e.w.clientWorkers(), drop)
			seen[o.qi] = true // it compiled the plan or found it compiled
			morselsCompiled += st.Adaptive.CompiledMorsels
			morselsInterp += st.Adaptive.InterpretedMorsels
			return err
		},
	}
	// Each op runs in all three modes back to back, the order rotating, so
	// the lines one mode leaves in the simulated CPU cache favour each of
	// the others equally often.
	took := make([][]float64, len(modes))
	for i, o := range ops {
		for k := range modes {
			m := (i + k) % len(modes)
			tx := eng.Begin()
			t0 := time.Now()
			err := modes[m](tx, o)
			took[m] = append(took[m], float64(time.Since(t0))/1e3)
			tx.Abort()
			if err != nil {
				return fmt.Errorf("probe jit sr%s: %w", e.srQ[o.qi].Name(), err)
			}
		}
	}
	interp, compiledUs, adaptive := took[0], took[1], took[2]
	var compileUs []float64
	for _, p := range e.srPlans {
		c, err := ld.jit.CompileUncached(p)
		if err != nil {
			return fmt.Errorf("probe jit compile: %w", err)
		}
		compileUs = append(compileUs, us(c.CompileTime))
	}

	out["query.exec_sr_us"] = mean(interp)
	out["jit.exec_us"] = mean(compiledUs)
	out["jit.adaptive_us"] = mean(adaptive)
	out["jit.compile_us"] = mean(compileUs)
	out["jit.cache_hit_frac"] = frac(float64(hits), float64(runs))
	out["jit.compiled_frac"] = frac(float64(compiled), float64(runs))
	out["jit.adaptive_compiled_morsel_frac"] = frac(float64(morselsCompiled), float64(morselsCompiled+morselsInterp))
	// Runs of one query after which compiling it has paid for itself;
	// -1 when compiled code is not faster and it never does.
	out["jit.breakeven_runs"] = -1
	if gain := mean(interp) - mean(compiledUs); gain > 0 {
		out["jit.breakeven_runs"] = mean(compileUs) / gain
	}
	return nil
}
