package query

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
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

// MorselPlan is a plan split for morsel-driven execution.
type MorselPlan struct {
	// Pipeline is the streaming subtree: leaf scan up to (excluding) the
	// first pipeline breaker.
	Pipeline Op
	// Tail holds the remaining operators root-first; empty if the whole
	// plan streams.
	Tail []Op
	// Leaf is the plan's access path, a *NodeScan or *RelScan.
	Leaf Op
}

// isBreaker reports whether the operator must see all input tuples before
// emitting (a pipeline breaker in the §6.1 sense).
func isBreaker(op Op) bool {
	switch op.(type) {
	case *OrderBy, *CountAgg, *Distinct, *HashJoin:
		return true
	default:
		return false
	}
}

// hasUpdates reports whether the subtree contains update operators, which
// must not run concurrently on a shared transaction.
func hasUpdates(op Op) bool {
	for cur := op; cur != nil; cur = cur.child() {
		switch cur.(type) {
		case *CreateNode, *CreateRel, *SetProps, *Delete:
			return true
		case *HashJoin:
			return true // child() only walks the left side
		}
	}
	return false
}

// SplitForMorsels decomposes a plan for parallel execution. It returns
// ok=false when the plan cannot be parallelized: the access path is not a
// table scan, the plan contains updates, or a join.
func SplitForMorsels(p *Plan) (*MorselPlan, bool) {
	if p == nil || p.Root == nil || hasUpdates(p.Root) {
		return nil, false
	}
	var chain []Op // root first
	for cur := p.Root; cur != nil; cur = cur.child() {
		chain = append(chain, cur)
	}
	leaf := chain[len(chain)-1]
	switch leaf.(type) {
	case *NodeScan, *RelScan:
	default:
		return nil, false
	}
	// Find the breaker closest to the leaf.
	split := -1
	for i, op := range chain {
		if isBreaker(op) {
			split = i
		}
	}
	mp := &MorselPlan{Leaf: leaf}
	if split == -1 {
		mp.Pipeline = p.Root
	} else {
		mp.Pipeline = chain[split].child()
		mp.Tail = chain[:split+1]
	}
	return mp, true
}

// SplitPipeline decomposes any single-chain plan into its streaming
// pipeline and breaker tail, without the parallelizability restrictions
// of SplitForMorsels. The JIT compiler (§6.2) compiles the pipeline into
// one function and leaves breakers to the materializing tail. Plans
// containing joins return ok=false (the join build side is a separate
// pipeline).
func SplitPipeline(p *Plan) (*MorselPlan, bool) {
	if p == nil || p.Root == nil {
		return nil, false
	}
	var chain []Op
	for cur := p.Root; cur != nil; cur = cur.child() {
		if _, isJoin := cur.(*HashJoin); isJoin {
			return nil, false
		}
		chain = append(chain, cur)
	}
	split := -1
	for i, op := range chain {
		if isBreaker(op) {
			split = i
		}
	}
	mp := &MorselPlan{Leaf: chain[len(chain)-1]}
	if split == -1 {
		mp.Pipeline = p.Root
	} else {
		mp.Pipeline = chain[split].child()
		mp.Tail = chain[:split+1]
	}
	return mp, true
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

// --- internal operators used by the parallel machinery ---

// chunkScan is a NodeScan/RelScan restricted to one chunk; the chunk
// index is read through a pointer so a worker can reuse its compiled
// pipeline across morsels.
type chunkScan struct {
	label string
	rel   bool
	chunk *uint64
}

func (o *chunkScan) sig(b *strings.Builder) {
	fmt.Fprintf(b, "chunkScan(%s,%v)", o.label, o.rel)
}
func (o *chunkScan) child() Op { return nil }

// tupleSource replays materialized tuples into a pipeline (used to feed
// the tail operators).
type tupleSource struct {
	tuples []Tuple
}

func (o *tupleSource) sig(b *strings.Builder) { b.WriteString("tupleSource") }
func (o *tupleSource) child() Op              { return nil }

func buildChunkScan(o *chunkScan, ctx *Ctx, out Sink) (func() error, error) {
	return buildScan(o.label, o.rel, o.chunk, ctx, out)
}

func buildTupleSource(o *tupleSource, ctx *Ctx, out Sink) (func() error, error) {
	return func() error {
		for i, t := range o.tuples {
			if i&1023 == 0 {
				if err := ctx.err(); err != nil {
					return err
				}
			}
			cont, err := out(t)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
		return nil
	}, nil
}

// CloneWithInput shallow-copies a pipeline operator with a new input.
func CloneWithInput(op Op, in Op) (Op, error) {
	switch o := op.(type) {
	case *Expand:
		c := *o
		c.Input = in
		return &c, nil
	case *GetNode:
		c := *o
		c.Input = in
		return &c, nil
	case *NodeLookup:
		c := *o
		c.Input = in
		return &c, nil
	case *CreateNode:
		c := *o
		c.Input = in
		return &c, nil
	case *Filter:
		c := *o
		c.Input = in
		return &c, nil
	case *Project:
		c := *o
		c.Input = in
		return &c, nil
	case *Limit:
		c := *o
		c.Input = in
		return &c, nil
	case *OrderBy:
		c := *o
		c.Input = in
		return &c, nil
	case *Distinct:
		c := *o
		c.Input = in
		return &c, nil
	case *CountAgg:
		c := *o
		c.Input = in
		return &c, nil
	case *CreateRel:
		c := *o
		c.Input = in
		return &c, nil
	case *SetProps:
		c := *o
		c.Input = in
		return &c, nil
	case *Delete:
		c := *o
		c.Input = in
		return &c, nil
	default:
		return nil, fmt.Errorf("%w: cannot re-root %T", ErrBadPlan, op)
	}
}

// rebuildOnLeaf clones the subtree rooted at root, substituting newLeaf
// for its access path.
func rebuildOnLeaf(root Op, newLeaf Op) (Op, error) {
	if root.child() == nil {
		return newLeaf, nil
	}
	in, err := rebuildOnLeaf(root.child(), newLeaf)
	if err != nil {
		return nil, err
	}
	return CloneWithInput(root, in)
}

// PipelineRunner builds an interpreter instance of the morsel pipeline
// for one worker. The returned run function executes the pipeline on the
// chunk currently stored in *chunk.
func (mp *MorselPlan) PipelineRunner(ctx *Ctx, chunk *uint64, out Sink) (func() error, error) {
	leaf := &chunkScan{chunk: chunk}
	switch l := mp.Leaf.(type) {
	case *NodeScan:
		leaf.label = l.Label
	case *RelScan:
		leaf.label = l.Label
		leaf.rel = true
	default:
		return nil, fmt.Errorf("%w: unsupported morsel leaf %T", ErrBadPlan, mp.Leaf)
	}
	root, err := rebuildOnLeaf(mp.Pipeline, leaf)
	if err != nil {
		return nil, err
	}
	return buildOp(root, ctx, out)
}

// RunTail executes the tail operators over materialized tuples.
func (mp *MorselPlan) RunTail(ctx *Ctx, tuples []Tuple, emit func(Row) bool) error {
	terminal := func(t Tuple) (bool, error) {
		if err := ctx.err(); err != nil {
			return false, err
		}
		return emit(tupleToRow(t)), nil
	}
	if len(mp.Tail) == 0 {
		for _, t := range tuples {
			if cont, err := terminal(t); err != nil || !cont {
				return err
			}
		}
		return nil
	}
	// Rebuild only the tail chain (root-first in mp.Tail) over the
	// materialized tuples; the pipeline below it already ran.
	root := Op(&tupleSource{tuples: tuples})
	for i := len(mp.Tail) - 1; i >= 0; i-- {
		var err error
		root, err = CloneWithInput(mp.Tail[i], root)
		if err != nil {
			return err
		}
	}
	run, err := buildOp(root, ctx, terminal)
	if err != nil {
		return err
	}
	return run()
}

// MorselTask processes one morsel for one worker, pushing what the
// pipeline produces into the sink the worker was built over.
type MorselTask func(morsel uint64) error

// RunMorsels is the morsel task loop (§6.1, the paper's Fig 3), written
// once for every engine: workers goroutines (0 = GOMAXPROCS) claim the
// leaf table's morsels from a shared counter and hand each to their own
// task — newTask builds one per worker over the worker's sink. The
// interpreter's task runs the pipeline's closure cascade; the adaptive
// executor's redirects to compiled code once that exists. A streaming
// plan's rows reach emit one at a time; with a tail to run, the workers'
// tuples are gathered and the tail runs over them single-threaded. Workers
// stop claiming once emit returns false, a task fails or ctx.Context is
// cancelled; every goroutine has exited when the call returns.
func (mp *MorselPlan) RunMorsels(ctx *Ctx, workers int, emit func(Row) bool, newTask func(out Sink) (MorselTask, error)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tbl := ctx.E.Nodes()
	if _, isRel := mp.Leaf.(*RelScan); isRel {
		tbl = ctx.E.Rels()
	}
	nmorsels := MorselCount(tbl.MaxID(), tbl.ChunkCap())

	// Streamed rows reach the caller's emit one at a time under emitMu.
	// With a tail to run, each worker gathers its own tuples and the
	// parts are joined once the workers are done: the tail sorts or
	// aggregates, so their order carries no meaning.
	streaming := len(mp.Tail) == 0
	var emitMu sync.Mutex
	var stopped atomic.Bool
	stream := func(t Tuple) (bool, error) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if stopped.Load() {
			return false, nil
		}
		if !emit(tupleToRow(t)) {
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
		}()
	}
	wg.Wait()
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
	return mp.RunTail(ctx, slices.Concat(parts...), emit)
}

// RunParallelCtx executes the plan with morsel-driven parallelism: the
// morsel loop over the interpreter's pipeline. Plans that cannot be
// parallelized fall back to single-threaded interpretation. Result order
// is nondeterministic across morsels. Once the context is cancelled the
// in-flight morsels drain (the shared transaction observes the context
// and aborts) and the call returns ctx.Err().
func (pr *Prepared) RunParallelCtx(cctx context.Context, tx *core.Tx, params Params, workers int, emit func(Row) bool) error {
	mp, ok := SplitForMorsels(pr.Plan)
	if !ok {
		return pr.RunCtx(cctx, tx, params, emit)
	}
	ctx, err := NewCtx(cctx, pr.E, tx, params)
	if err != nil {
		return err
	}
	defer ctx.Detach()
	ctx.linked = pr.linked
	return mp.RunMorsels(ctx, workers, emit, func(out Sink) (MorselTask, error) {
		var morsel uint64
		run, err := mp.PipelineRunner(ctx, &morsel, out)
		return func(m uint64) error { morsel = m; return run() }, err
	})
}
