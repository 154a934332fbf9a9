package jit

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/trace"
)

// Engine is the JIT query engine wrapping a graph engine: it compiles
// graph-algebra plans to optimized pipelines, caches compiled code in
// memory and (serialized) in PMem, and provides the paper's execution
// modes: AOT interpretation, JIT compilation and adaptive execution.
type Engine struct {
	core  *core.Engine
	cache *pcache

	mu  sync.Mutex
	mem map[string]*Compiled

	// tel holds the metric handles; the zero value (all nil) is the
	// disabled no-op path.
	tel Telemetry
}

// Compiled is a ready-to-run compilation result.
type Compiled struct {
	Sig   string
	Split *query.Split
	// Prog is the plan's pipeline. Over a table scan one Run covers one
	// morsel, whoever drives it — the single worker of a JIT run or the
	// workers of an adaptive one; any other access path runs whole.
	Prog *Program

	// CompileTime is the wall time of codegen, SimplifyCFG and lowering
	// (or just relinking, when the code came from the persistent cache).
	CompileTime time.Duration
	FromCache   bool
}

// New creates a JIT engine, opening the persistent code cache inside the
// graph engine's pool.
func New(e *core.Engine) (*Engine, error) {
	c, err := openCache(e)
	if err != nil {
		return nil, err
	}
	return &Engine{core: e, cache: c, mem: make(map[string]*Compiled)}, nil
}

// InvalidateSession drops the in-memory code cache (the persistent cache
// stays, simulating a restart where code is relinked from PMem).
func (j *Engine) InvalidateSession() {
	j.mu.Lock()
	j.mem = make(map[string]*Compiled)
	j.mu.Unlock()
}

// CompileCtx produces (or fetches) the compiled form of a plan. The
// paper's flow: derive the query identifier, look up the persistent hash
// map; on a hit, link the stored code; otherwise generate IR, simplify
// its control flow, lower, and persist. The context is checked before
// the persistent lookup and before compiling: the adaptive executor relies
// on that so that cancelling a query also cancels its background
// compilation instead of leaving a goroutine finishing work nobody will
// use.
func (j *Engine) CompileCtx(ctx context.Context, plan *query.Plan) (*Compiled, error) {
	ctx, sp := trace.StartSpan(ctx, "jit.compile", trace.KindJIT)
	c, err := j.compileCtx(ctx, plan)
	if c != nil {
		sp.SetAttr("from_cache", c.FromCache)
		sp.SetAttr("compile_ns", int64(c.CompileTime))
	}
	sp.SetError(err)
	sp.End()
	return c, err
}

// compileCtx is CompileCtx without the tracing envelope.
func (j *Engine) compileCtx(ctx context.Context, plan *query.Plan) (*Compiled, error) {
	sig := plan.Signature()
	j.mu.Lock()
	if c, ok := j.mem[sig]; ok {
		j.mu.Unlock()
		j.tel.MemHits.Inc()
		trace.FromContext(ctx).SetAttr("source", "mem")
		return c, nil
	}
	j.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := time.Now()
	if blob, hit := j.cache.lookup(irFormat + sig); hit {
		// A corrupt cache entry falls through to recompilation.
		if fn, err := decodeFn(blob); err == nil {
			if prog, err := Lower(fn); err == nil {
				c := &Compiled{
					Sig: sig, Split: plan.Split(), Prog: prog,
					CompileTime: time.Since(start), FromCache: true,
				}
				j.remember(c)
				j.tel.PersistHits.Inc()
				trace.FromContext(ctx).SetAttr("source", "pmem")
				return c, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := j.CompileUncached(plan)
	if err != nil {
		return nil, err
	}
	_ = j.cache.store(irFormat+sig, encodeFn(c.Prog.fn)) // cache-full is non-fatal
	trace.FromContext(ctx).SetAttr("source", "compile")
	return c, nil
}

// CompileUncached always performs the full compilation, bypassing both
// the in-memory and the persistent cache (benchmarks use it to measure the
// cold-code path). It is the one place the stages are chained: codegen
// over the plan's split, SimplifyCFG, lowering. The result is
// remembered for the session.
func (j *Engine) CompileUncached(plan *query.Plan) (*Compiled, error) {
	start := time.Now()
	sp := plan.Split()
	fn, err := Compile(sp)
	if err != nil {
		return nil, err
	}
	Optimize(fn)
	prog, err := Lower(fn)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Sig: plan.Signature(), Split: sp, Prog: prog,
		CompileTime: time.Since(start),
	}
	j.remember(c)
	j.tel.Compiles.Inc()
	j.tel.CompileTime.ObserveDuration(c.CompileTime)
	return c, nil
}

func (j *Engine) remember(c *Compiled) {
	j.mu.Lock()
	j.mem[c.Sig] = c
	j.mu.Unlock()
}

// RunStats reports the cost breakdown of one execution.
type RunStats struct {
	CompileTime time.Duration
	ExecTime    time.Duration
	FromCache   bool
	Compiled    bool // false when execution fell back to interpretation
	Adaptive    struct {
		InterpretedMorsels int
		CompiledMorsels    int
	}
}

// RunCtx executes the plan in JIT mode within tx: compile (or fetch), run
// the compiled pipeline single-threaded, then the breaker tail. The
// compiled pipeline drives the same transaction-level iterators as the
// interpreter, so a cancelled context aborts mid-scan with per-record
// granularity and RunCtx returns ctx.Err().
func (j *Engine) RunCtx(cctx context.Context, tx *core.Tx, plan *query.Plan, params query.Params, emit func(query.Row) bool) (RunStats, error) {
	var st RunStats
	c, err := j.CompileCtx(cctx, plan)
	if err != nil {
		return st, err
	}
	st.CompileTime = c.CompileTime
	st.FromCache = c.FromCache
	st.Compiled = true

	ctx, err := query.NewCtx(cctx, j.core, tx, params)
	if err != nil {
		return st, err
	}
	defer ctx.Detach()

	_, esp := trace.StartSpan(cctx, "jit.exec", trace.KindJIT)
	esp.SetAttr("from_cache", c.FromCache)
	start := time.Now()
	err = runCompiled(c, ctx, emit)
	st.ExecTime = time.Since(start)
	esp.SetError(err)
	esp.End()
	return st, err
}

// runCompiled runs the compiled pipeline and the tail on its output. A
// scanned table goes through the morsel loop with this one worker; any
// other access path is a single Run, here.
func runCompiled(c *Compiled, ctx *query.Ctx, emit func(query.Row) bool) error {
	sp := c.Split
	if sp.Scan {
		return sp.RunMorsels(ctx, 1, emit, func(out query.Sink) (query.MorselTask, error) {
			exec := c.Prog.NewExec()
			return func(m uint64) error { return exec.Run(ctx, m, out) }, nil
		})
	}
	exec := c.Prog.NewExec()
	if sp.Cut == len(sp.Ops) {
		// Streaming: emit rows directly from the compiled pipeline.
		sink := func(t query.Tuple) (bool, error) { return emit(query.ToRow(t)), nil }
		return exec.Run(ctx, 0, sink)
	}
	var collected []query.Tuple
	sink := func(t query.Tuple) (bool, error) {
		collected = append(collected, t)
		return true, nil
	}
	if err := exec.Run(ctx, 0, sink); err != nil {
		return err
	}
	return sp.RunTail(ctx, collected, emit)
}

// RunAdaptiveCtx executes the plan with the paper's adaptive strategy
// (§6.2, Fig 3): the morsel loop starts on the AOT interpreter while a
// background goroutine compiles the pipeline; once compilation finishes,
// the task function is redirected and the remaining morsels run compiled.
// A plan the workers may not share (Split.Morsels) has no loop to adapt
// and is RunCtx; that branch serves direct callers only, since the DB
// interprets such a plan under Adaptive (executor in stmt.go). On a
// cancellation the background compilation stops before its next stage,
// no goroutine is left behind, and the call returns ctx.Err().
func (j *Engine) RunAdaptiveCtx(cctx context.Context, tx *core.Tx, plan *query.Plan, params query.Params, workers int, emit func(query.Row) bool) (RunStats, error) {
	var st RunStats
	mp := plan.Split()
	if !mp.Morsels() {
		return j.RunCtx(cctx, tx, plan, params, emit)
	}
	ctx, err := query.NewCtx(cctx, j.core, tx, params)
	if err != nil {
		return st, err
	}
	defer ctx.Detach()
	// The adaptive span parents the workers' spans and the background
	// jit.compile span (it compiles under cctx), so a trace shows exactly
	// when the tier switch became possible.
	cctx, asp := trace.StartSpan(cctx, "jit.adaptive", trace.KindJIT)
	ctx.Context = cctx

	// Already-linked code is used directly; otherwise compilation runs in
	// the background and the pointer swap is the paper's "redirecting the
	// static task function to the compiled function".
	var compiledProg atomic.Pointer[Program]
	compileDone := make(chan *Compiled, 1)
	sig := plan.Signature()
	j.mu.Lock()
	pre := j.mem[sig]
	j.mu.Unlock()
	if pre != nil {
		compiledProg.Store(pre.Prog)
		compileDone <- pre
	} else {
		go func() {
			// The run's context cancels the compilation at its next stage
			// boundary; compileDone is buffered so the send never blocks.
			c, err := j.CompileCtx(cctx, plan)
			if err != nil {
				compileDone <- nil
				return
			}
			compiledProg.Store(c.Prog)
			compileDone <- c
		}()
	}

	var interpMorsels, compiledMorsels atomic.Int64
	start := time.Now()
	err = mp.RunMorsels(ctx, workers, emit, func(out query.Sink) (query.MorselTask, error) {
		var morsel uint64
		var interp func() error // linked at the worker's first interpreted morsel
		var exec *Exec
		return func(m uint64) error {
			if prog := compiledProg.Load(); prog != nil {
				if exec == nil {
					exec = prog.NewExec()
				}
				compiledMorsels.Add(1)
				return exec.Run(ctx, m, out)
			}
			if interp == nil {
				var err error
				if interp, err = mp.PipelineRunner(ctx, &morsel, out); err != nil {
					return err
				}
			}
			interpMorsels.Add(1)
			morsel = m
			return interp()
		}, nil
	})
	// Don't block on a compilation that is still running when the query
	// was cancelled — it observes the same context and exits on its own;
	// compileDone is buffered so its send never blocks either way.
	select {
	case c := <-compileDone:
		if c != nil {
			st.CompileTime = c.CompileTime
			st.FromCache = c.FromCache
			st.Compiled = true
		}
	case <-cctx.Done():
	}
	st.Adaptive.InterpretedMorsels = int(interpMorsels.Load())
	st.Adaptive.CompiledMorsels = int(compiledMorsels.Load())
	j.tel.MorselsInterpreted.Add(uint64(st.Adaptive.InterpretedMorsels))
	j.tel.MorselsCompiled.Add(uint64(st.Adaptive.CompiledMorsels))
	asp.SetAttr("morsels_interpreted", int64(st.Adaptive.InterpretedMorsels))
	asp.SetAttr("morsels_compiled", int64(st.Adaptive.CompiledMorsels))
	if st.Adaptive.InterpretedMorsels > 0 && st.Adaptive.CompiledMorsels > 0 {
		j.tel.Switchovers.Inc()
		asp.SetAttr("switchover", true)
	}
	st.ExecTime = time.Since(start)
	asp.SetError(err)
	asp.End()
	return st, err
}
