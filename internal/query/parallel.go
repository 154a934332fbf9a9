package query

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"poseidon/internal/core"
	"poseidon/internal/trace"
)

// Morsel-driven parallelism (§6.1): scans are split into chunk-granular
// morsels; each worker pulls morsels from a shared counter and runs the
// streaming part of the pipeline on its morsel. Operators above the last
// pipeline breaker run single-threaded over the collected intermediate
// tuples. The same machinery powers the adaptive JIT execution (§6.2),
// which swaps the per-morsel task function once compilation finishes.

// firstError keeps the first error reported by a pool of workers.
// atomic.Value cannot hold it directly: CompareAndSwap panics when two
// workers race with different concrete error types (write-conflict
// aborts vs wrapped index errors, say), so the error travels boxed in
// one fixed type.
type firstError struct {
	p atomic.Pointer[firstErrorBox]
}

type firstErrorBox struct{ err error }

func (f *firstError) set(err error) { f.p.CompareAndSwap(nil, &firstErrorBox{err}) }

func (f *firstError) pending() bool { return f.p.Load() != nil }

func (f *firstError) err() error {
	if b := f.p.Load(); b != nil {
		return b.err
	}
	return nil
}

// MorselGrain is the number of record slots per morsel. Finer than a
// table chunk so even laptop-scale tables expose enough parallelism for
// the §6.1 task model (the paper pins morsels to tasks the same way).
const MorselGrain = 256

// morselsPerChunk returns how many morsels cover one chunk.
func morselsPerChunk(chunkCap uint64) uint64 {
	return (chunkCap + MorselGrain - 1) / MorselGrain
}

// MorselCount returns the number of morsels covering a table of maxID
// slots partitioned into chunks of chunkCap records. Morsels never span
// a chunk boundary, so every morsel's records live in exactly one engine
// shard (chunk ownership is chunk index mod shard count) and parallel
// scans partition along shard boundaries.
func MorselCount(maxID, chunkCap uint64) uint64 {
	return (maxID + chunkCap - 1) / chunkCap * morselsPerChunk(chunkCap)
}

// MorselRange returns the id range [from, to) covered by morsel m. The
// last morsel of each chunk is clipped to the chunk end.
func MorselRange(m, chunkCap uint64) (from, to uint64) {
	per := morselsPerChunk(chunkCap)
	ci, sub := m/per, m%per
	from = ci*chunkCap + sub*MorselGrain
	to = from + MorselGrain
	if end := (ci + 1) * chunkCap; to > end {
		to = end
	}
	return from, to
}

// under returns a copy of the run's Ctx that links link where buildOp
// reaches the operator below; the plan's operators are linked as they
// stand, whichever half of the split runs.
func (ctx *Ctx) under(below Op, link func(out Sink) (func() error, error)) *Ctx {
	c := *ctx
	c.src = &source{below, link}
	return &c
}

// PipelineRunner builds an interpreter instance of the pipeline for one
// worker. Over a table scan the returned run function executes it on the
// morsel currently stored in *morsel; any other access path runs whole.
func (sp *Split) PipelineRunner(ctx *Ctx, morsel *uint64, out Sink) (func() error, error) {
	linker := ctx
	switch l := sp.Ops[0].(type) {
	case *NodeScan:
		linker = ctx.under(l, func(out Sink) (func() error, error) { return buildScan(l.Label, false, morsel, ctx, out) })
	case *RelScan:
		linker = ctx.under(l, func(out Sink) (func() error, error) { return buildScan(l.Label, true, morsel, ctx, out) })
	}
	return buildOp(sp.Ops[sp.Cut-1], linker, out)
}

// RunTail executes the tail operators over the tuples the pipeline
// produced: they are replayed in the pipeline's place.
func (sp *Split) RunTail(ctx *Ctx, tuples []Tuple, emit func(Row) bool) error {
	terminal := func(t Tuple) (bool, error) {
		if err := ctx.err(); err != nil {
			return false, err
		}
		return emit(ToRow(t)), nil
	}
	replay := func(out Sink) (func() error, error) {
		return func() error {
			for i, t := range tuples {
				if i&1023 == 0 {
					if err := ctx.err(); err != nil {
						return err
					}
				}
				if cont, err := out(t); err != nil || !cont {
					return err
				}
			}
			return nil
		}, nil
	}
	run, err := buildOp(sp.Ops[len(sp.Ops)-1], ctx.under(sp.Ops[sp.Cut-1], replay), terminal)
	if err != nil {
		return err
	}
	return run()
}

// MorselTask processes one morsel for one worker, pushing what the
// pipeline produces into the sink the worker was built over.
type MorselTask func(morsel uint64) error

// RunMorsels is the morsel task loop (§6.1, the paper's Fig 3), written
// once for every engine, over a plan whose leaf is a table scan: workers
// goroutines (0 = GOMAXPROCS) claim the table's morsels from a shared
// counter and hand each to their own task — newTask builds one per worker
// over the worker's sink. The interpreter's task runs the pipeline's
// closure cascade; the adaptive executor's redirects to compiled code once
// that exists; a JIT run is one worker over compiled code. A streaming
// plan's rows reach emit one at a time; with a tail to run, the workers'
// tuples are gathered and the tail runs over them single-threaded. Workers
// stop claiming once emit returns false, the tuples a Limit at the cut asks
// for are gathered, a task fails or ctx.Context is cancelled; every
// goroutine has exited when the call returns.
func (sp *Split) RunMorsels(ctx *Ctx, workers int, emit func(Row) bool, newTask func(out Sink) (MorselTask, error)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tbl := ctx.E.Nodes()
	if _, isRel := sp.Ops[0].(*RelScan); isRel {
		tbl = ctx.E.Rels()
	}
	nmorsels := MorselCount(tbl.MaxID(), tbl.ChunkCap())

	// Streamed rows reach the caller's emit one at a time under streamed.mu.
	// With a tail to run, each worker gathers its own tuples and the
	// parts are joined once the workers are done: the tail sorts,
	// aggregates or cuts off, so their order carries no meaning. A Limit
	// at the cut needs no more than its N tuples, whoever gathers them.
	streaming := sp.Cut == len(sp.Ops)
	var want int64
	if !streaming {
		if l, ok := sp.Ops[sp.Cut].(*Limit); ok {
			want = int64(l.N)
		}
	}
	var gathered atomic.Int64
	var streamed struct { // one allocation: the rows are carved under mu
		mu   sync.Mutex
		rows RowSlab
	}
	var stopped atomic.Bool
	stream := func(t Tuple) (bool, error) {
		streamed.mu.Lock()
		defer streamed.mu.Unlock()
		if stopped.Load() {
			return false, nil
		}
		if !emit(streamed.rows.fromTuple(t)) {
			stopped.Store(true)
			return false, nil
		}
		return true, nil
	}
	parts := make([][]Tuple, workers)

	// With tracing on, each worker gets its own span under the caller's,
	// carrying the number of morsels it claimed — the skew between workers
	// is the load-balance signal. parent is nil with tracing off and every
	// span call no-ops.
	parent := trace.FromContext(ctx.Context)
	parent.SetAttr("workers", int64(workers))
	var next atomic.Uint64
	var failed firstError
	work := func(w int) {
		wsp := parent.Child("query.worker", trace.KindExec)
		wsp.SetAttr("worker", int64(w))
		var morsels int64
		defer func() {
			wsp.SetAttr("morsels", morsels)
			wsp.End()
		}()
		collect := stream
		if !streaming {
			var mine []Tuple
			collect = func(t Tuple) (bool, error) {
				mine = append(mine, append(Tuple(nil), t...))
				if want > 0 && gathered.Add(1) >= want {
					stopped.Store(true)
					return false, nil
				}
				return true, nil
			}
			defer func() { parts[w] = mine }()
		}
		task, err := newTask(collect)
		for err == nil {
			m := next.Add(1) - 1
			if m >= nmorsels || stopped.Load() || failed.pending() || ctx.err() != nil {
				return
			}
			morsels++
			err = task(m)
		}
		wsp.SetError(err)
		failed.set(err)
	}
	if workers == 1 {
		work(0) // a JIT run's one worker: no goroutine to hand the run to
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	// Cancellation wins over secondary errors (a worker racing the abort
	// may surface ErrTxDone first).
	if err := ctx.err(); err != nil {
		return err
	}
	if err := failed.err(); err != nil {
		return err
	}
	if streaming {
		return nil
	}
	return sp.RunTail(ctx, slices.Concat(parts...), emit)
}

// RunParallelCtx executes the plan with morsel-driven parallelism: the
// morsel loop over the interpreter's pipeline. A plan the workers may not
// share (Split.Morsels) is one task, interpreted on the caller's goroutine.
// Result order is nondeterministic across morsels. Once the context is
// cancelled the in-flight morsels drain (the shared transaction observes
// the context and aborts) and the call returns ctx.Err().
func (pr *Prepared) RunParallelCtx(cctx context.Context, tx *core.Tx, params Params, workers int, emit func(Row) bool) error {
	sp := pr.Plan.Split()
	if !sp.Morsels() {
		return pr.RunCtx(cctx, tx, params, emit)
	}
	ctx, err := NewCtx(cctx, pr.E, tx, params)
	if err != nil {
		return err
	}
	defer ctx.Detach()
	ctx.linked = pr.linked
	return sp.RunMorsels(ctx, workers, emit, func(out Sink) (MorselTask, error) {
		var morsel uint64
		run, err := sp.PipelineRunner(ctx, &morsel, out)
		return func(m uint64) error { morsel = m; return run() }, err
	})
}
