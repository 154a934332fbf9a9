package query

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"poseidon/internal/core"
	"poseidon/internal/storage"
)

// The AOT-compiled interpreter (§6.1/§6.2 "interpretation mode"): each
// operator is translated into an interpret function; the functions are
// linked into a cascade of closures that push tuples downstream. Values
// cross operator boundaries boxed in Datum structs and expressions are
// evaluated through dynamic dispatch — exactly the overheads the JIT
// backend removes.
//
// Retention rule: an operator writes every output into the one tuple it
// owns and a sink sees a tuple only for the length of its call, so a sink
// that keeps a tuple copies it (OrderBy, the HashJoin build side, the
// morsel loop's gathering). The result boundary follows the same rule: a
// Row handed to emit is valid for that call only — a pooled run writes
// every row into one buffer of its own — so a caller that keeps rows
// copies them: CollectCtx and the facade's cursor into a RowSlab, the
// facade's materialized result by boxing each value, once, into its own
// slab.

// DatumKind tags a tuple column.
type DatumKind uint8

// Tuple column kinds.
const (
	DNode DatumKind = iota
	DRel
	DVal
)

// Datum is one tuple column: a node snapshot, a relationship snapshot or
// a plain value.
type Datum struct {
	Kind DatumKind
	Node core.NodeSnap
	Rel  core.RelSnap
	Val  storage.Value
}

// Tuple is a row flowing through the pipeline.
type Tuple []Datum

// put makes *t, an operator's output tuple, in followed by ds.
func (t *Tuple) put(in Tuple, ds ...Datum) Tuple {
	if n := len(in) + len(ds); cap(*t) < n {
		*t = make(Tuple, 0, n)
	}
	*t = append(append((*t)[:0], in...), ds...)
	return *t
}

// Row is a finished output row of plain values.
type Row []storage.Value

// Params binds query parameters by name.
type Params map[string]any

// ErrBadPlan reports a structurally invalid plan.
var ErrBadPlan = errors.New("query: invalid plan")

// Sink consumes a tuple and reports whether the producer should continue.
// Sinks are the push-based links between operators (§6.1).
type Sink func(t Tuple) (bool, error)

// codeRef lazily resolves a dictionary string to its code. Resolution is
// cached; a missing string stays unresolved (matching nothing) until it
// appears in the dictionary.
type codeRef struct {
	name string
	code atomic.Uint64
}

func (c *codeRef) get(e *core.Engine) (uint64, bool) {
	if v := c.code.Load(); v != 0 {
		return v, true
	}
	if c.name == "" {
		return 0, false
	}
	v, ok := e.Dict().Lookup(c.name)
	if !ok {
		return 0, false
	}
	c.code.Store(v)
	return v, true
}

// Prepared is a plan bound to an engine, ready for repeated execution.
// Goroutines sharing one run it without a lock: each run takes a linked
// instance of the cascade from the pool, or links one.
type Prepared struct {
	E    *core.Engine
	Plan *Plan
	Sig  string
	linked
	pool sync.Pool // of *instance
}

// instance is the cascade linked over its own Ctx, run after run. Between
// runs it holds no transaction, context, tuple or row (see release).
type instance struct {
	ctx  Ctx
	run  func() error
	emit func(Row) bool
	row  Row // every row of every run is written here (see RunCtx)
}

// linked is what Prepare compiles once, so that a run links only its own
// state: the evaluators of the operators' expressions, keyed by the plan's
// expression nodes (a split plan's halves link the same nodes), and the
// dictionary references of its label and key strings. It is a Prepared's,
// never the plan's: codes are one engine's, a Plan may be prepared on many.
type linked struct {
	exprs map[Expr]evalFn
	preds map[Expr]predFn
	codes map[string]*codeRef
}

// Prepare validates a plan and binds it to an engine by linking the
// cascade once against a recording Ctx; that link is the pool's first
// instance. A build error is not reported here: every run that reaches it
// fails as it always did.
func Prepare(e *core.Engine, p *Plan) (*Prepared, error) {
	if p == nil || p.Root == nil {
		return nil, fmt.Errorf("%w: empty plan", ErrBadPlan)
	}
	pr := &Prepared{E: e, Plan: p, Sig: p.Signature(),
		linked: linked{map[Expr]evalFn{}, map[Expr]predFn{}, map[string]*codeRef{}}}
	if in, err := pr.link(true); err == nil {
		pr.pool.Put(in)
	}
	return pr, nil
}

// link builds an instance of the cascade; Prepare's records what it
// builds in the Prepared's linked maps.
func (pr *Prepared) link(preparing bool) (*instance, error) {
	in := &instance{ctx: Ctx{E: pr.E, Params: map[string]storage.Value{}, linked: pr.linked, preparing: preparing, pooled: true}}
	terminal := func(t Tuple) (bool, error) {
		if err := in.ctx.err(); err != nil {
			return false, err
		}
		in.row = fillRow(in.row, t)
		return in.emit(in.row), nil
	}
	var err error
	in.run, err = buildOp(pr.Plan.Root, &in.ctx, terminal)
	in.ctx.preparing = false
	return in, err
}

// Ctx is the per-execution state shared by all operators of a run.
type Ctx struct {
	E      *core.Engine
	Tx     *core.Tx
	Params map[string]storage.Value
	// Context is the cancellation context of the run. Scans observe it
	// through the transaction; operators that replay materialized tuples
	// check it directly.
	Context context.Context
	prev    context.Context // the transaction's own, restored by Detach

	// linked is the Prepared's; a Ctx built outside one (the JIT engine's)
	// has none and compiles the expressions of what it links afresh.
	linked
	preparing bool // Prepare's own Ctx records what it builds

	// pooled marks a Prepared's instance; kept zeroes the state its
	// operators keep, when a run returns (see keep).
	pooled bool
	kept   []func()

	// src links one half of a split plan. Set on a copy of the run's Ctx
	// (see under), never on one that workers share.
	src *source
}

// source stands in for a subtree: where buildOp reaches the operator
// below, it links link instead — a morsel's scan for the pipeline's leaf,
// the gathered tuples for the pipeline under the tail.
type source struct {
	below Op
	link  func(out Sink) (func() error, error)
}

// expr and pred return the evaluator of an operator's expression or
// predicate: the Prepared's, or one built now (Prepare's Ctx records it).
func (c *Ctx) expr(e Expr) (evalFn, error) { return linkFn(c, c.exprs, e, buildExpr) }
func (c *Ctx) pred(e Expr) (predFn, error) { return linkFn(c, c.preds, e, buildPred) }

func linkFn[F any](c *Ctx, m map[Expr]F, e Expr, build func(Expr, *Ctx) (F, error)) (F, error) {
	if fn, ok := m[e]; ok {
		return fn, nil
	}
	fn, err := build(e, c)
	if err == nil && c.preparing {
		m[e] = fn
	}
	return fn, err
}

// code returns a label or key string's reference, resolved by Prepare
// unless the dictionary does not hold the string yet.
func (c *Ctx) code(name string) *codeRef {
	ref, ok := c.codes[name]
	if !ok {
		ref = &codeRef{name: name}
		if c.preparing {
			ref.get(c.E)
			c.codes[name] = ref
		}
	}
	return ref
}

// keep has a pooled instance zero *p, an operator's state, when a run
// returns. Iterators and slabs are dropped so: kept from run to run as
// well as the output tuples, they moved sr_inproc heap_inuse_mb 31.7 →
// 35.9 MiB (EXPERIMENTS.md "Box once at the result boundary").
func keep[T any](c *Ctx, p *T) {
	if c.pooled { // the closure is made only here: a run that links per run pays nothing
		c.kept = append(c.kept, func() { *p = *new(T) })
	}
}

// keepArray has a pooled instance clear *buf, an operator's output tuple,
// when a run returns, and keep its array for the next run: nothing the run
// wrote there outlives it but what sinks copied.
func keepArray(c *Ctx, buf *Tuple) {
	if c.pooled {
		c.kept = append(c.kept, func() { clear((*buf)[:cap(*buf)]) })
	}
}

// err reports the run's cancellation state.
func (c *Ctx) err() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// NewCtx starts one execution in tx; see bind. The caller defers Detach.
func NewCtx(cctx context.Context, e *core.Engine, tx *core.Tx, params Params) (*Ctx, error) {
	c := &Ctx{E: e, Params: make(map[string]storage.Value, len(params))}
	if err := c.bind(cctx, tx, params); err != nil {
		return nil, err
	}
	return c, nil
}

// bind is the preamble every mode shares: it encodes the parameters
// (interning strings) into c.Params, which it finds empty, and attaches
// cctx to the transaction, so a cancellation mid-scan aborts it
// (discarding any uncommitted writes).
func (c *Ctx) bind(cctx context.Context, tx *core.Tx, params Params) error {
	for k, v := range params {
		val, err := c.E.EncodeValue(v)
		if err != nil {
			clear(c.Params)
			return fmt.Errorf("query: param %s: %w", k, err)
		}
		c.Params[k] = val
	}
	c.Tx, c.Context, c.prev = tx, cctx, tx.WithContext(cctx)
	return nil
}

// Detach ends the execution bind started: the transaction gets back the
// context it had before.
func (c *Ctx) Detach() { c.Tx.WithContext(c.prev) }

// RunCtx executes the plan in interpretation mode within tx, calling emit
// for every result row until exhaustion or emit returns false. On a
// cancellation it returns ctx.Err(). The Row emit gets is valid for that
// call only: the run rewrites one buffer for every row (and the next run
// of the instance rewrites it again), so emit copies what it keeps —
// CollectCtx and RowSlab.Copy do.
func (pr *Prepared) RunCtx(ctx context.Context, tx *core.Tx, params Params, emit func(Row) bool) error {
	in, _ := pr.pool.Get().(*instance)
	if in == nil {
		var err error
		if in, err = pr.link(false); err != nil {
			return err
		}
	}
	if err := in.ctx.bind(ctx, tx, params); err != nil {
		pr.pool.Put(in)
		return err
	}
	in.emit = emit
	defer pr.release(in)
	return in.run()
}

// release ends a run: the transaction gets its context back, the
// operators drop what they kept of the run — counts, seen-sets, output
// tuples, iterators, slabs — and the instance goes back to the pool.
func (pr *Prepared) release(in *instance) {
	in.ctx.Detach()
	for _, zero := range in.ctx.kept {
		zero()
	}
	clear(in.ctx.Params)
	in.ctx.Tx, in.ctx.Context, in.ctx.prev, in.emit = nil, nil, nil, nil
	pr.pool.Put(in)
}

// CollectCtx executes the plan under ctx and gathers copies of all rows.
func (pr *Prepared) CollectCtx(ctx context.Context, tx *core.Tx, params Params) ([]Row, error) {
	var rows []Row
	var slab RowSlab
	err := pr.RunCtx(ctx, tx, params, func(r Row) bool {
		rows = append(rows, slab.Copy(r))
		return true
	})
	return rows, err
}

// RowSlab carves owned copies of rows from shared arrays. Like
// core.PropSlab, an array that runs out is replaced, never rewound, so a
// copy stays valid for as long as anyone holds it.
type RowSlab struct{ buf []storage.Value }

// rowSlabMax caps an array's growth (in values).
const rowSlabMax = 1024

// Copy returns an owned copy of r.
func (s *RowSlab) Copy(r Row) Row {
	row := s.next(len(r))
	copy(row, r)
	return row
}

// fromTuple is ToRow into the slab.
func (s *RowSlab) fromTuple(t Tuple) Row { return fillRow(s.next(len(t)), t) }

// next claims the slab's next n values.
func (s *RowSlab) next(n int) Row {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]storage.Value, 0, max(n, min(2*cap(s.buf), rowSlabMax)))
	}
	l := len(s.buf)
	s.buf = s.buf[:l+n]
	return Row(s.buf[l : l+n : l+n])
}

// ToRow converts a tuple to a row of plain values (nodes and
// relationships become their ids).
func ToRow(t Tuple) Row { return fillRow(nil, t) }

// fillRow writes t's plain values into row, reusing its array.
func fillRow(row Row, t Tuple) Row {
	if cap(row) < len(t) {
		row = make(Row, len(t))
	}
	row = row[:len(t)]
	for i, d := range t {
		switch d.Kind {
		case DNode:
			row[i] = storage.IntValue(int64(d.Node.ID))
		case DRel:
			row[i] = storage.IntValue(int64(d.Rel.ID))
		default:
			row[i] = d.Val
		}
	}
	return row
}

// buildOp recursively links the operator cascade: each pipeline operator
// wraps the downstream sink; access paths return the pipeline driver.
// It creates only per-run state, which an instance zeroes after each run
// (see keep); evaluators and codes come from ctx.
func buildOp(op Op, ctx *Ctx, out Sink) (func() error, error) {
	if s := ctx.src; s != nil && op == s.below {
		return s.link(out)
	}
	switch o := op.(type) {
	case *NodeScan:
		return buildNodeScan(o, ctx, out)
	case *RelScan:
		return buildRelScan(o, ctx, out)
	case *NodeByID:
		return buildNodeByID(o, ctx, out)
	case *IndexScan:
		return buildIndexScan(o, ctx, out)
	case *CreateNode:
		return buildCreateNode(o, ctx, out)
	case *Expand:
		return buildExpand(o, ctx, out)
	case *GetNode:
		return buildGetNode(o, ctx, out)
	case *NodeLookup:
		return buildNodeLookup(o, ctx, out)
	case *Filter:
		return buildFilter(o, ctx, out)
	case *Project:
		return buildProject(o, ctx, out)
	case *Limit:
		return buildLimit(o, ctx, out)
	case *OrderBy:
		return buildOrderBy(o, ctx, out)
	case *Distinct:
		return buildDistinct(o, ctx, out)
	case *CountAgg:
		return buildCountAgg(o, ctx, out)
	case *HashJoin:
		return buildHashJoin(o, ctx, out)
	case *CreateRel:
		return buildCreateRel(o, ctx, out)
	case *SetProps:
		return buildSetProps(o, ctx, out)
	case *Delete:
		return buildDelete(o, ctx, out)
	default:
		return nil, fmt.Errorf("%w: unknown operator %T", ErrBadPlan, op)
	}
}

// --- access paths ---

func buildNodeScan(o *NodeScan, ctx *Ctx, out Sink) (func() error, error) {
	return buildScan(o.Label, false, nil, ctx, out)
}

func buildRelScan(o *RelScan, ctx *Ctx, out Sink) (func() error, error) {
	return buildScan(o.Label, true, nil, ctx, out)
}

// buildScan links a table scan — nodes, or relationships if rel — over the
// whole table or, with morsel set, over the morsel a worker has stored
// there before the run. The label goes down into the iterator, which the
// driver keeps from run to run.
func buildScan(label string, rel bool, morsel *uint64, ctx *Ctx, out Sink) (func() error, error) {
	ref := ctx.code(label)
	tbl := ctx.E.Nodes()
	if rel {
		tbl = ctx.E.Rels()
	}
	var st struct { // one allocation
		nodes core.NodeIter
		rels  core.RelTableIter
	}
	keep(ctx, &st)
	nodes, rels := &st.nodes, &st.rels
	return func() error {
		var labelCode uint32
		if label != "" {
			code, ok := ref.get(ctx.E)
			if !ok {
				return nil // label never seen: empty result
			}
			labelCode = uint32(code)
		}
		from, to := uint64(0), tbl.MaxID()
		if morsel != nil {
			from, to = MorselRange(*morsel, tbl.ChunkCap())
		}
		if rel {
			rels.Reset(ctx.Tx, from, to, labelCode)
			for {
				ok, err := rels.Next()
				if !ok || err != nil {
					return err
				}
				if cont, err := out(Tuple{{Kind: DRel, Rel: rels.Rel()}}); !cont || err != nil {
					return err
				}
			}
		}
		nodes.Reset(ctx.Tx, from, to, labelCode)
		for {
			ok, err := nodes.Next()
			if !ok || err != nil {
				return err
			}
			if cont, err := out(Tuple{{Kind: DNode, Node: nodes.Node()}}); !cont || err != nil {
				return err
			}
		}
	}, nil
}

func buildNodeByID(o *NodeByID, ctx *Ctx, out Sink) (func() error, error) {
	return func() error {
		v, ok := ctx.Params[o.Param]
		if !ok {
			return fmt.Errorf("query: unbound parameter $%s", o.Param)
		}
		n, err := ctx.Tx.GetNode(uint64(v.Int()))
		if err == core.ErrNotFound {
			return nil
		}
		if err != nil {
			return err
		}
		_, err = out(Tuple{{Kind: DNode, Node: n}})
		return err
	}, nil
}

// indexFor is Engine.IndexFor minus its two dictionary probes per call;
// an unresolved code is 0, which no index has.
func indexFor(e *core.Engine, label, key *codeRef) (*core.IndexRef, bool) {
	lc, _ := label.get(e)
	kc, _ := key.get(e)
	return e.LookupIndex(uint32(lc), uint32(kc))
}

func buildIndexScan(o *IndexScan, ctx *Ctx, out Sink) (func() error, error) {
	val, err := ctx.expr(o.Value)
	if err != nil {
		return nil, err
	}
	label, pkey := ctx.code(o.Label), ctx.code(o.Key)
	var st struct { // one allocation
		it  core.IndexIter
		buf Tuple
	}
	keep(ctx, &st.it)
	keepArray(ctx, &st.buf)
	return func() error {
		tree, ok := indexFor(ctx.E, label, pkey)
		if !ok {
			return fmt.Errorf("query: no index on (%s, %s)", o.Label, o.Key)
		}
		key, err := val(ctx, nil)
		if err != nil {
			return err
		}
		_, err = lookupEach(ctx, &st.it, tree, key, func(n core.NodeSnap) (bool, error) {
			return out(st.buf.put(nil, Datum{Kind: DNode, Node: n}))
		})
		return err
	}, nil
}

// lookupEach hands fn every node of the index hits of key visible to the
// run's transaction, each read into the iterator's slab, until fn stops
// it.
func lookupEach(ctx *Ctx, it *core.IndexIter, tree *core.IndexRef, key storage.Value, fn func(core.NodeSnap) (bool, error)) (bool, error) {
	if err := it.Reset(ctx.Tx, tree, key); err != nil {
		return false, err
	}
	for {
		ok, err := it.Next()
		if !ok || err != nil {
			return err == nil, err
		}
		if cont, err := fn(it.Node()); !cont || err != nil {
			return cont, err
		}
	}
}

func buildCreateNode(o *CreateNode, ctx *Ctx, out Sink) (func() error, error) {
	evals, err := buildPropSpecs(o.Props, ctx)
	if err != nil {
		return nil, err
	}
	var buf Tuple
	keepArray(ctx, &buf)
	createInto := func(t Tuple) (bool, error) {
		props, err := evalPropSpecs(evals, ctx, t)
		if err != nil {
			return false, err
		}
		id, err := ctx.Tx.CreateNode(o.Label, props)
		if err != nil {
			return false, err
		}
		n, err := ctx.Tx.GetNode(id)
		if err != nil {
			return false, err
		}
		return out(buf.put(t, Datum{Kind: DNode, Node: n}))
	}
	if o.Input == nil {
		return func() error {
			_, err := createInto(nil)
			return err
		}, nil
	}
	return buildOp(o.Input, ctx, createInto)
}

// --- pipeline operators ---

func buildExpand(o *Expand, ctx *Ctx, out Sink) (func() error, error) {
	ref := ctx.code(o.RelLabel)
	var st struct { // one allocation
		it  core.AdjIter
		buf Tuple
	}
	keep(ctx, &st.it)
	keepArray(ctx, &st.buf)
	it, buf := &st.it, &st.buf
	// walk extends t by each relationship of the adjacency list at head.
	walk := func(t Tuple, head uint64, outgoing bool, labelCode uint32) (bool, error) {
		it.Reset(ctx.Tx, head, outgoing, labelCode)
		for {
			ok, err := it.Next()
			if !ok || err != nil {
				return err == nil, err
			}
			// Each relationship rewrites the one output tuple (the retention
			// rule); its Datums still carry the boxing compiled code avoids.
			if cont, err := out(buf.put(t, Datum{Kind: DRel, Rel: it.Rel()})); !cont || err != nil {
				return cont, err
			}
		}
	}
	own := func(t Tuple) (bool, error) {
		if o.Col >= len(t) || t[o.Col].Kind != DNode {
			return false, fmt.Errorf("%w: Expand column %d is not a node", ErrBadPlan, o.Col)
		}
		var labelCode uint32
		if o.RelLabel != "" {
			code, ok := ref.get(ctx.E)
			if !ok {
				return true, nil
			}
			labelCode = uint32(code)
		}
		node := t[o.Col].Node.Rec
		if o.Dir != In {
			if cont, err := walk(t, node.Out, true, labelCode); !cont || err != nil {
				return cont, err
			}
		}
		if o.Dir != Out {
			return walk(t, node.In, false, labelCode)
		}
		return true, nil
	}
	return buildOp(o.Input, ctx, own)
}

func buildGetNode(o *GetNode, ctx *Ctx, out Sink) (func() error, error) {
	var st struct { // one allocation
		slab core.PropSlab
		buf  Tuple
	}
	keep(ctx, &st.slab)
	keepArray(ctx, &st.buf)
	slab, buf := &st.slab, &st.buf
	own := func(t Tuple) (bool, error) {
		if o.RelCol >= len(t) || t[o.RelCol].Kind != DRel {
			return false, fmt.Errorf("%w: GetNode column %d is not a relationship", ErrBadPlan, o.RelCol)
		}
		rel := t[o.RelCol].Rel
		var target uint64
		switch o.End {
		case Src:
			target = rel.Rec.Src
		case Dst:
			target = rel.Rec.Dst
		case Other:
			if o.OtherCol >= len(t) || t[o.OtherCol].Kind != DNode {
				return false, fmt.Errorf("%w: GetNode other-column %d is not a node", ErrBadPlan, o.OtherCol)
			}
			if rel.Rec.Src == t[o.OtherCol].Node.ID {
				target = rel.Rec.Dst
			} else {
				target = rel.Rec.Src
			}
		}
		n, err := ctx.Tx.GetNodeIn(target, slab)
		if err == core.ErrNotFound {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		return out(buf.put(t, Datum{Kind: DNode, Node: n}))
	}
	return buildOp(o.Input, ctx, own)
}

func buildNodeLookup(o *NodeLookup, ctx *Ctx, out Sink) (func() error, error) {
	val, err := ctx.expr(o.Value)
	if err != nil {
		return nil, err
	}
	label, pkey := ctx.code(o.Label), ctx.code(o.Key)
	var st struct { // one allocation
		it  core.IndexIter
		buf Tuple
	}
	keep(ctx, &st.it)
	keepArray(ctx, &st.buf)
	own := func(t Tuple) (bool, error) {
		tree, ok := indexFor(ctx.E, label, pkey)
		if !ok {
			return false, fmt.Errorf("query: no index on (%s, %s)", o.Label, o.Key)
		}
		key, err := val(ctx, t)
		if err != nil {
			return false, err
		}
		return lookupEach(ctx, &st.it, tree, key, func(n core.NodeSnap) (bool, error) {
			return out(st.buf.put(t, Datum{Kind: DNode, Node: n}))
		})
	}
	return buildOp(o.Input, ctx, own)
}

func buildFilter(o *Filter, ctx *Ctx, out Sink) (func() error, error) {
	pred, err := ctx.pred(o.Pred)
	if err != nil {
		return nil, err
	}
	own := func(t Tuple) (bool, error) {
		ok, err := pred(ctx, t)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		return out(t)
	}
	return buildOp(o.Input, ctx, own)
}

func buildProject(o *Project, ctx *Ctx, out Sink) (func() error, error) {
	evals := make([]evalFn, len(o.Cols))
	for i, c := range o.Cols {
		fn, err := ctx.expr(c)
		if err != nil {
			return nil, err
		}
		evals[i] = fn
	}
	var buf Tuple
	keepArray(ctx, &buf)
	own := func(t Tuple) (bool, error) {
		if buf == nil {
			buf = make(Tuple, len(evals))
		}
		for i, fn := range evals {
			v, err := fn(ctx, t)
			if err != nil {
				return false, err
			}
			buf[i] = Datum{Kind: DVal, Val: v}
		}
		return out(buf)
	}
	return buildOp(o.Input, ctx, own)
}

func buildLimit(o *Limit, ctx *Ctx, out Sink) (func() error, error) {
	n := 0
	keep(ctx, &n)
	own := func(t Tuple) (bool, error) {
		if n >= o.N {
			return false, nil
		}
		n++
		cont, err := out(t)
		return cont && n < o.N, err
	}
	return buildOp(o.Input, ctx, own)
}

func buildOrderBy(o *OrderBy, ctx *Ctx, out Sink) (func() error, error) {
	key, err := ctx.expr(o.Key)
	if err != nil {
		return nil, err
	}
	st := new(orderBuf)
	if ctx.pooled {
		// The copies are the run's, the arrays the instance's: a pooled
		// instance clears them for its next run rather than dropping them
		// (a copy per buffered tuple was sr_inproc's largest allocation site).
		ctx.kept = append(ctx.kept, st.reset)
	}
	own := func(t Tuple) (bool, error) {
		k, err := key(ctx, t)
		if err != nil {
			return false, err
		}
		st.items = append(st.items, orderItem{st.slab.copy(t), k})
		return true, nil
	}
	childRun, err := buildOp(o.Input, ctx, own)
	if err != nil {
		return nil, err
	}
	return func() error {
		st.items = st.items[:0]
		if err := childRun(); err != nil {
			return err
		}
		items := st.items
		slices.SortStableFunc(items, func(a, b orderItem) int {
			if o.Desc {
				a, b = b, a
			}
			switch {
			case a.k.Less(b.k):
				return -1
			case b.k.Less(a.k):
				return 1
			}
			return 0
		})
		if o.Limit > 0 && o.Limit < len(items) {
			items = items[:o.Limit]
		}
		for _, it := range items {
			cont, err := out(it.t)
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

// orderBuf is what OrderBy buffers: its input's tuples, copied, with
// their sort keys.
type orderBuf struct {
	items []orderItem
	slab  tupleSlab
}

type orderItem struct {
	t Tuple
	k storage.Value
}

func (b *orderBuf) reset() {
	clear(b.items)
	b.items = b.items[:0]
	b.slab.rewind()
}

// tupleSlab carves the copies of tuples a sink keeps from shared arrays.
// Like core.PropSlab, an array that runs out is replaced, so a copy stays
// valid until its owner rewinds the slab. Each new array holds as many
// Datums as the slab has handed out, so less than half of what it
// allocates goes unused (Datums are large: doubling each array instead
// raised scan_adaptive bytes_per_op).
type tupleSlab struct {
	buf []Datum
	n   int // Datums handed out since the last rewind
}

// tupleSlabMax caps an array's size (in Datums).
const tupleSlabMax = 256

// rewind drops every copy and keeps an array for the next ones: the last,
// or one that holds all of them if they did not fit in it.
func (s *tupleSlab) rewind() {
	if n := min(s.n, tupleSlabMax); n > cap(s.buf) {
		s.buf = make([]Datum, 0, n)
	} else {
		clear(s.buf)
		s.buf = s.buf[:0]
	}
	s.n = 0
}

func (s *tupleSlab) copy(t Tuple) Tuple {
	if cap(s.buf)-len(s.buf) < len(t) {
		s.buf = make([]Datum, 0, max(len(t), min(s.n, tupleSlabMax)))
	}
	n := len(s.buf)
	s.buf = append(s.buf, t...)
	s.n += len(t)
	return Tuple(s.buf[n:len(s.buf):len(s.buf)])
}

func buildDistinct(o *Distinct, ctx *Ctx, out Sink) (func() error, error) {
	key, err := ctx.expr(o.Key)
	if err != nil {
		return nil, err
	}
	var seen map[storage.Value]struct{}
	keep(ctx, &seen)
	own := func(t Tuple) (bool, error) {
		k, err := key(ctx, t)
		if err != nil {
			return false, err
		}
		if seen == nil {
			seen = make(map[storage.Value]struct{})
		}
		if _, dup := seen[k]; dup {
			return true, nil
		}
		seen[k] = struct{}{}
		return out(t)
	}
	return buildOp(o.Input, ctx, own)
}

func buildCountAgg(o *CountAgg, ctx *Ctx, out Sink) (func() error, error) {
	var count int64
	own := func(Tuple) (bool, error) {
		count++
		return true, nil
	}
	childRun, err := buildOp(o.Input, ctx, own)
	if err != nil {
		return nil, err
	}
	return func() error {
		count = 0
		if err := childRun(); err != nil {
			return err
		}
		_, err := out(Tuple{{Kind: DVal, Val: storage.IntValue(count)}})
		return err
	}, nil
}

func buildHashJoin(o *HashJoin, ctx *Ctx, out Sink) (func() error, error) {
	lkey, err := ctx.expr(o.LKey)
	if err != nil {
		return nil, err
	}
	rkey, err := ctx.expr(o.RKey)
	if err != nil {
		return nil, err
	}
	table := make(map[storage.Value][]Tuple)
	var buf Tuple
	keepArray(ctx, &buf)
	rightSink := func(t Tuple) (bool, error) {
		k, err := rkey(ctx, t)
		if err != nil {
			return false, err
		}
		table[k] = append(table[k], append(Tuple(nil), t...))
		return true, nil
	}
	rightRun, err := buildOp(o.Right, ctx, rightSink)
	if err != nil {
		return nil, err
	}
	leftSink := func(t Tuple) (bool, error) {
		k, err := lkey(ctx, t)
		if err != nil {
			return false, err
		}
		for _, rt := range table[k] {
			cont, err := out(buf.put(t, rt...))
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	leftRun, err := buildOp(o.Left, ctx, leftSink)
	if err != nil {
		return nil, err
	}
	return func() error {
		defer clear(table) // the copies die with the run
		// Materialize the right side first (§6.2), then stream the left.
		if err := rightRun(); err != nil {
			return err
		}
		return leftRun()
	}, nil
}

// --- update operators ---

func buildCreateRel(o *CreateRel, ctx *Ctx, out Sink) (func() error, error) {
	evals, err := buildPropSpecs(o.Props, ctx)
	if err != nil {
		return nil, err
	}
	var buf Tuple
	keepArray(ctx, &buf)
	own := func(t Tuple) (bool, error) {
		if o.SrcCol >= len(t) || t[o.SrcCol].Kind != DNode ||
			o.DstCol >= len(t) || t[o.DstCol].Kind != DNode {
			return false, fmt.Errorf("%w: CreateRel endpoints must be nodes", ErrBadPlan)
		}
		props, err := evalPropSpecs(evals, ctx, t)
		if err != nil {
			return false, err
		}
		id, err := ctx.Tx.CreateRel(t[o.SrcCol].Node.ID, t[o.DstCol].Node.ID, o.Label, props)
		if err != nil {
			return false, err
		}
		r, err := ctx.Tx.GetRel(id)
		if err != nil {
			return false, err
		}
		return out(buf.put(t, Datum{Kind: DRel, Rel: r}))
	}
	return buildOp(o.Input, ctx, own)
}

func buildSetProps(o *SetProps, ctx *Ctx, out Sink) (func() error, error) {
	evals, err := buildPropSpecs(o.Props, ctx)
	if err != nil {
		return nil, err
	}
	own := func(t Tuple) (bool, error) {
		if o.Col >= len(t) {
			return false, fmt.Errorf("%w: SetProps column %d out of range", ErrBadPlan, o.Col)
		}
		props, err := evalPropSpecs(evals, ctx, t)
		if err != nil {
			return false, err
		}
		switch t[o.Col].Kind {
		case DNode:
			if err := ctx.Tx.SetNodeProps(t[o.Col].Node.ID, props); err != nil {
				return false, err
			}
		case DRel:
			if err := ctx.Tx.SetRelProps(t[o.Col].Rel.ID, props); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("%w: SetProps column %d is a value", ErrBadPlan, o.Col)
		}
		return out(t)
	}
	return buildOp(o.Input, ctx, own)
}

func buildDelete(o *Delete, ctx *Ctx, out Sink) (func() error, error) {
	own := func(t Tuple) (bool, error) {
		if o.Col >= len(t) {
			return false, fmt.Errorf("%w: Delete column %d out of range", ErrBadPlan, o.Col)
		}
		switch t[o.Col].Kind {
		case DNode:
			if err := ctx.Tx.DetachDeleteNode(t[o.Col].Node.ID); err != nil {
				return false, err
			}
		case DRel:
			if err := ctx.Tx.DeleteRel(t[o.Col].Rel.ID); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("%w: Delete column %d is a value", ErrBadPlan, o.Col)
		}
		return out(t)
	}
	return buildOp(o.Input, ctx, own)
}

// --- property specs ---

type propSpecEval struct {
	key string
	fn  evalFn
}

func buildPropSpecs(specs []PropSpec, ctx *Ctx) ([]propSpecEval, error) {
	out := make([]propSpecEval, len(specs))
	for i, s := range specs {
		fn, err := ctx.expr(s.Val)
		if err != nil {
			return nil, err
		}
		out[i] = propSpecEval{key: s.Key, fn: fn}
	}
	return out, nil
}

func evalPropSpecs(evals []propSpecEval, ctx *Ctx, t Tuple) (map[string]any, error) {
	if len(evals) == 0 {
		return nil, nil
	}
	props := make(map[string]any, len(evals))
	for _, pe := range evals {
		v, err := pe.fn(ctx, t)
		if err != nil {
			return nil, err
		}
		gv, err := ctx.E.DecodeValue(v)
		if err != nil {
			return nil, err
		}
		props[pe.key] = gv
	}
	return props, nil
}
