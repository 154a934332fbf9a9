package jit

import (
	"errors"
	"fmt"

	"poseidon/internal/query"
	"poseidon/internal/storage"
)

// ErrUnsupported reports a plan construct the JIT cannot compile. An
// explicit JIT run returns it; the adaptive morsel loop keeps such a plan
// on the AOT interpreter.
var ErrUnsupported = errors.New("jit: plan not compilable")

// The code generator follows the paper's §6.2 design: a visitor walks the
// operator tree and produces, per operator, an entry and a consume basic
// block; complex operators contribute more blocks. The whole pipeline is
// fused into a single IR function — tuples live in virtual registers and
// never materialize between operators. Loops are built with the
// while_loop / while_loop_condition abstractions.

type builder struct {
	fn  *Fn
	cur int // current block index
}

func newBuilder(name string) *builder {
	fn := &Fn{Name: name}
	b := &builder{fn: fn}
	b.newBlock("entry")
	return b
}

func (b *builder) newBlock(name string) int {
	b.fn.Blocks = append(b.fn.Blocks, &Block{Name: name, Kind: TermRet})
	return len(b.fn.Blocks) - 1
}

func (b *builder) block() *Block { return b.fn.Blocks[b.cur] }

func (b *builder) setBlock(i int) { b.cur = i }

func (b *builder) emit(in Instr) {
	blk := b.block()
	blk.Instrs = append(blk.Instrs, in)
}

func (b *builder) val() Reg  { r := Reg(b.fn.NumVals); b.fn.NumVals++; return r }
func (b *builder) node() Reg { r := Reg(b.fn.NumNodes); b.fn.NumNodes++; return r }
func (b *builder) rel() Reg  { r := Reg(b.fn.NumRels); b.fn.NumRels++; return r }
func (b *builder) iter() Reg { r := Reg(b.fn.NumIters); b.fn.NumIters++; return r }
func (b *builder) slot() Reg { r := Reg(b.fn.NumSlots); b.fn.NumSlots++; return r }

func (b *builder) jump(to int) {
	blk := b.block()
	blk.Kind, blk.To = TermJump, to
}

func (b *builder) branch(cond Reg, t, f int) {
	blk := b.block()
	blk.Kind, blk.Cond, blk.To, blk.Else = TermBranch, cond, t, f
}

func (b *builder) ret() { b.block().Kind = TermRet }

// whileLoop is the paper's while_loop_condition abstraction: it emits
//
//	header: cond := condGen(); br cond, body, exit
//	body:   bodyGen(); jump header
//	exit:
//
// and leaves the builder positioned at exit. bodyGen receives the header
// index as its continue target.
func (b *builder) whileLoop(name string, condGen func() Reg, bodyGen func(header, exit int)) {
	header := b.newBlock(name + ".header")
	body := b.newBlock(name + ".body")
	exit := b.newBlock(name + ".exit")
	b.jump(header)
	b.setBlock(header)
	cond := condGen()
	b.branch(cond, body, exit)
	b.setBlock(body)
	bodyGen(header, exit)
	// The builder position after the body is its fall-through point (the
	// operator "return path" of Fig 4): loop back to the header.
	b.jump(header)
	b.setBlock(exit)
}

// valueType is the compile-time type lattice used for comparison
// specialization (§6.2: "type information can be handled at
// compile-time").
type valueType uint8

const (
	tyUnknown valueType = iota
	tyInt
	tyFloat
	tyBool
	tyString
)

func typeOfValue(v storage.Value) valueType {
	switch v.Type {
	case storage.TypeInt:
		return tyInt
	case storage.TypeFloat:
		return tyFloat
	case storage.TypeBool:
		return tyBool
	case storage.TypeString:
		return tyString
	default:
		return tyUnknown
	}
}

// gen is the per-compilation code generator state.
type gen struct {
	b      *builder
	cols   []Col // current tuple layout (register per column)
	types  map[Reg]valueType
	consts map[storage.Value]Reg
	params map[string]Reg
}

// Compile translates the streaming pipeline of a plan — the split's
// operators below the cut — into an IR function. A table scan at the leaf
// iterates the morsel the execution machine was handed (OpLoadChunk), so
// one program serves a single worker looping over the table's morsels and
// many workers sharing them. Plans with a join are not compilable: the
// build side is a pipeline of its own.
func Compile(sp *query.Split) (*Fn, error) {
	if sp.Join {
		return nil, fmt.Errorf("%w: plan contains a join", ErrUnsupported)
	}
	g := &gen{
		b:      newBuilder("pipeline"),
		types:  make(map[Reg]valueType),
		consts: make(map[storage.Value]Reg),
		params: make(map[string]Reg),
	}
	body := g.b.newBlock("pipeline.start")
	g.b.jump(body)
	g.b.setBlock(body)
	if err := g.genFrom(sp.Ops[:sp.Cut], 0); err != nil {
		return nil, err
	}
	g.b.ret()
	fn := g.b.fn
	if err := fn.Verify(); err != nil {
		return nil, err
	}
	return fn, nil
}

// genFrom generates ops[k] and, inline within its body, everything above
// it (the produce/consume fusion). cont is implicit: loops provide their
// own continue targets.
func (g *gen) genFrom(ops []query.Op, k int) error {
	if k == len(ops) {
		return g.genEmit()
	}
	switch o := ops[k].(type) {
	case *query.NodeScan:
		return g.genNodeScan(o, ops, k)
	case *query.RelScan:
		return g.genRelScan(o, ops, k)
	case *query.NodeByID:
		return g.genNodeByID(o, ops, k)
	case *query.IndexScan:
		return g.genIndexScan(o, ops, k)
	case *query.CreateNode:
		return g.genCreateNode(o, ops, k)
	case *query.Expand:
		return g.genExpand(o, ops, k)
	case *query.GetNode:
		return g.genGetNode(o, ops, k)
	case *query.NodeLookup:
		return g.genNodeLookup(o, ops, k)
	case *query.Filter:
		return g.genFilter(o, ops, k)
	case *query.Project:
		return g.genProject(o, ops, k)
	case *query.Limit:
		return g.genLimit(o, ops, k)
	case *query.CreateRel:
		return g.genCreateRel(o, ops, k)
	case *query.SetProps:
		return g.genSetProps(o, ops, k)
	case *query.Delete:
		return g.genDelete(o, ops, k)
	default:
		return fmt.Errorf("%w: operator %T", ErrUnsupported, ops[k])
	}
}

func (g *gen) genEmit() error {
	b := g.b
	cont := b.val()
	b.emit(Instr{Op: OpEmit, Dst: cont, A: NoReg, B: NoReg, Cols: append([]Col(nil), g.cols...)})
	if b.fn.OutCols == nil {
		b.fn.OutCols = append([]Col(nil), g.cols...)
	}
	// If the consumer stops, return from the whole pipeline function.
	next := b.newBlock("emit.cont")
	stop := b.newBlock("emit.stop")
	b.branch(cont, next, stop)
	b.setBlock(stop)
	b.ret()
	b.setBlock(next)
	return nil
}

func (g *gen) genNodeScan(o *query.NodeScan, ops []query.Op, k int) error {
	b := g.b
	it := b.iter()
	chunkV := b.val()
	b.emit(Instr{Op: OpLoadChunk, Dst: chunkV, A: NoReg, B: NoReg})
	b.emit(Instr{Op: OpIterChunkInit, Dst: it, A: chunkV, B: NoReg, Sym: o.Label})
	var genErr error
	b.whileLoop("nodescan", func() Reg {
		c := b.val()
		b.emit(Instr{Op: OpIterNext, Dst: c, A: it, B: NoReg})
		return c
	}, func(header, exit int) {
		n := b.node()
		b.emit(Instr{Op: OpIterNodeGet, Dst: n, A: it, B: NoReg})
		saved := g.cols
		g.cols = []Col{{Kind: ColNode, Reg: n}}
		genErr = g.genFrom(ops, k+1)
		g.cols = saved
	})
	return genErr
}

func (g *gen) genRelScan(o *query.RelScan, ops []query.Op, k int) error {
	b := g.b
	it := b.iter()
	chunkV := b.val()
	b.emit(Instr{Op: OpLoadChunk, Dst: chunkV, A: NoReg, B: NoReg})
	b.emit(Instr{Op: OpIterRelChunkInit, Dst: it, A: chunkV, B: NoReg, Sym: o.Label})
	var genErr error
	b.whileLoop("relscan", func() Reg {
		c := b.val()
		b.emit(Instr{Op: OpIterNext, Dst: c, A: it, B: NoReg})
		return c
	}, func(header, exit int) {
		r := b.rel()
		b.emit(Instr{Op: OpIterRelGet, Dst: r, A: it, B: NoReg})
		saved := g.cols
		g.cols = []Col{{Kind: ColRel, Reg: r}}
		genErr = g.genFrom(ops, k+1)
		g.cols = saved
	})
	return genErr
}

func (g *gen) genNodeByID(o *query.NodeByID, ops []query.Op, k int) error {
	b := g.b
	idV := g.paramReg(o.Param)
	n := b.node()
	found := b.val()
	b.emit(Instr{Op: OpGetNode, Dst: n, Dst2: found, A: idV, B: NoReg})
	body := b.newBlock("byid.body")
	exit := b.newBlock("byid.exit")
	b.branch(found, body, exit)
	b.setBlock(body)
	saved := g.cols
	g.cols = []Col{{Kind: ColNode, Reg: n}}
	if err := g.genFrom(ops, k+1); err != nil {
		return err
	}
	g.cols = saved
	b.jump(exit)
	b.setBlock(exit)
	return nil
}

func (g *gen) genIndexScan(o *query.IndexScan, ops []query.Op, k int) error {
	b := g.b
	keyV, err := g.genExpr(o.Value)
	if err != nil {
		return err
	}
	it := b.iter()
	b.emit(Instr{Op: OpIterIndex, Dst: it, A: keyV, B: NoReg, Sym: o.Label + "\x00" + o.Key})
	var genErr error
	b.whileLoop("idxscan", func() Reg {
		c := b.val()
		b.emit(Instr{Op: OpIterNext, Dst: c, A: it, B: NoReg})
		return c
	}, func(header, exit int) {
		n := b.node()
		b.emit(Instr{Op: OpIterNodeGet, Dst: n, A: it, B: NoReg})
		saved := g.cols
		g.cols = []Col{{Kind: ColNode, Reg: n}}
		genErr = g.genFrom(ops, k+1)
		g.cols = saved
	})
	return genErr
}

func (g *gen) genCreateNode(o *query.CreateNode, ops []query.Op, k int) error {
	b := g.b
	pairs, err := g.genPairs(o.Props)
	if err != nil {
		return err
	}
	n := b.node()
	b.emit(Instr{Op: OpCreateNode, Dst: n, A: NoReg, B: NoReg, Sym: o.Label, Pairs: pairs})
	saved := g.cols
	if o.Input == nil {
		g.cols = []Col{{Kind: ColNode, Reg: n}}
	} else {
		g.cols = append(append([]Col(nil), g.cols...), Col{Kind: ColNode, Reg: n})
	}
	if err := g.genFrom(ops, k+1); err != nil {
		return err
	}
	g.cols = saved
	return nil
}

func (g *gen) genExpand(o *query.Expand, ops []query.Op, k int) error {
	if o.Col >= len(g.cols) || g.cols[o.Col].Kind != ColNode {
		return fmt.Errorf("%w: Expand column %d is not a node", ErrUnsupported, o.Col)
	}
	nodeReg := g.cols[o.Col].Reg
	dirs := []Opcode{}
	switch o.Dir {
	case query.Out:
		dirs = append(dirs, OpIterOutRels)
	case query.In:
		dirs = append(dirs, OpIterInRels)
	case query.Both:
		dirs = append(dirs, OpIterOutRels, OpIterInRels)
	}
	b := g.b
	for _, dirOp := range dirs {
		it := b.iter()
		b.emit(Instr{Op: dirOp, Dst: it, A: nodeReg, B: NoReg, Sym: o.RelLabel})
		var genErr error
		b.whileLoop("expand", func() Reg {
			c := b.val()
			b.emit(Instr{Op: OpIterNext, Dst: c, A: it, B: NoReg})
			return c
		}, func(header, exit int) {
			r := b.rel()
			b.emit(Instr{Op: OpIterRelGet, Dst: r, A: it, B: NoReg})
			saved := g.cols
			g.cols = append(append([]Col(nil), g.cols...), Col{Kind: ColRel, Reg: r})
			genErr = g.genFrom(ops, k+1)
			g.cols = saved
		})
		if genErr != nil {
			return genErr
		}
	}
	return nil
}

func (g *gen) genGetNode(o *query.GetNode, ops []query.Op, k int) error {
	if o.RelCol >= len(g.cols) || g.cols[o.RelCol].Kind != ColRel {
		return fmt.Errorf("%w: GetNode column %d is not a relationship", ErrUnsupported, o.RelCol)
	}
	b := g.b
	relReg := g.cols[o.RelCol].Reg
	idV := b.val()
	switch o.End {
	case query.Src:
		b.emit(Instr{Op: OpRelSrcID, Dst: idV, A: relReg, B: NoReg})
	case query.Dst:
		b.emit(Instr{Op: OpRelDstID, Dst: idV, A: relReg, B: NoReg})
	case query.Other:
		if o.OtherCol >= len(g.cols) || g.cols[o.OtherCol].Kind != ColNode {
			return fmt.Errorf("%w: GetNode other-column %d is not a node", ErrUnsupported, o.OtherCol)
		}
		b.emit(Instr{Op: OpRelOtherID, Dst: idV, A: relReg, B: g.cols[o.OtherCol].Reg})
	}
	g.types[idV] = tyInt
	n := b.node()
	found := b.val()
	b.emit(Instr{Op: OpGetNode, Dst: n, Dst2: found, A: idV, B: NoReg, Sym: o.Label})
	body := b.newBlock("getnode.body")
	exit := b.newBlock("getnode.exit")
	b.branch(found, body, exit)
	b.setBlock(body)
	saved := g.cols
	g.cols = append(append([]Col(nil), g.cols...), Col{Kind: ColNode, Reg: n})
	if err := g.genFrom(ops, k+1); err != nil {
		return err
	}
	g.cols = saved
	b.jump(exit)
	b.setBlock(exit)
	return nil
}

func (g *gen) genNodeLookup(o *query.NodeLookup, ops []query.Op, k int) error {
	b := g.b
	keyV, err := g.genExpr(o.Value)
	if err != nil {
		return err
	}
	it := b.iter()
	b.emit(Instr{Op: OpIterIndex, Dst: it, A: keyV, B: NoReg, Sym: o.Label + "\x00" + o.Key})
	var genErr error
	b.whileLoop("nodelookup", func() Reg {
		c := b.val()
		b.emit(Instr{Op: OpIterNext, Dst: c, A: it, B: NoReg})
		return c
	}, func(header, exit int) {
		n := b.node()
		b.emit(Instr{Op: OpIterNodeGet, Dst: n, A: it, B: NoReg})
		saved := g.cols
		g.cols = append(append([]Col(nil), g.cols...), Col{Kind: ColNode, Reg: n})
		genErr = g.genFrom(ops, k+1)
		g.cols = saved
	})
	return genErr
}

func (g *gen) genFilter(o *query.Filter, ops []query.Op, k int) error {
	b := g.b
	cond, err := g.genExpr(o.Pred)
	if err != nil {
		return err
	}
	pass := b.newBlock("filter.pass")
	skip := b.newBlock("filter.skip")
	b.branch(cond, pass, skip)
	b.setBlock(pass)
	if err := g.genFrom(ops, k+1); err != nil {
		return err
	}
	b.jump(skip)
	b.setBlock(skip)
	return nil
}

func (g *gen) genProject(o *query.Project, ops []query.Op, k int) error {
	newCols := make([]Col, len(o.Cols))
	for i, ex := range o.Cols {
		r, err := g.genExpr(ex)
		if err != nil {
			return err
		}
		newCols[i] = Col{Kind: ColVal, Reg: r}
	}
	saved := g.cols
	g.cols = newCols
	err := g.genFrom(ops, k+1)
	g.cols = saved
	return err
}

func (g *gen) genLimit(o *query.Limit, ops []query.Op, k int) error {
	b := g.b
	// Counter in a stack slot: it is loaded in one block and stored in
	// another, like an LLVM alloca that survives -mem2reg.
	slot := b.slot()
	// Allocas belong to the function entry block (§6.2 requirement 2).
	entry := &b.fn.Blocks[0].Instrs
	*entry = append(*entry, Instr{Op: OpAlloca, Dst: slot, A: NoReg, B: NoReg, Val: storage.IntValue(0)})

	cur := b.val()
	b.emit(Instr{Op: OpLoad, Dst: cur, A: slot, B: NoReg})
	limV := g.constReg(storage.IntValue(int64(o.N)))
	cond := b.val()
	b.emit(Instr{Op: OpCmpI64, Dst: cond, A: cur, B: limV, Aux: cmpLt})
	body := b.newBlock("limit.body")
	stop := b.newBlock("limit.stop")
	b.branch(cond, body, stop)
	b.setBlock(stop)
	b.ret() // limit reached: terminate the pipeline function
	b.setBlock(body)
	one := g.constReg(storage.IntValue(1))
	inc := b.val()
	b.emit(Instr{Op: OpAddI64, Dst: inc, A: cur, B: one})
	b.emit(Instr{Op: OpStore, Dst: slot, A: inc, B: NoReg})
	return g.genFrom(ops, k+1)
}

func (g *gen) genCreateRel(o *query.CreateRel, ops []query.Op, k int) error {
	if o.SrcCol >= len(g.cols) || g.cols[o.SrcCol].Kind != ColNode ||
		o.DstCol >= len(g.cols) || g.cols[o.DstCol].Kind != ColNode {
		return fmt.Errorf("%w: CreateRel endpoints must be nodes", ErrUnsupported)
	}
	pairs, err := g.genPairs(o.Props)
	if err != nil {
		return err
	}
	b := g.b
	r := b.rel()
	b.emit(Instr{
		Op: OpCreateRel, Dst: r,
		A: g.cols[o.SrcCol].Reg, B: g.cols[o.DstCol].Reg,
		Sym: o.Label, Pairs: pairs,
	})
	saved := g.cols
	g.cols = append(append([]Col(nil), g.cols...), Col{Kind: ColRel, Reg: r})
	err = g.genFrom(ops, k+1)
	g.cols = saved
	return err
}

func (g *gen) genSetProps(o *query.SetProps, ops []query.Op, k int) error {
	if o.Col >= len(g.cols) || g.cols[o.Col].Kind == ColVal {
		return fmt.Errorf("%w: SetProps column %d is not an object", ErrUnsupported, o.Col)
	}
	pairs, err := g.genPairs(o.Props)
	if err != nil {
		return err
	}
	aux := 0
	if g.cols[o.Col].Kind == ColRel {
		aux = 1
	}
	g.b.emit(Instr{Op: OpSetProps, Dst: NoReg, A: g.cols[o.Col].Reg, B: NoReg, Aux: aux, Pairs: pairs})
	return g.genFrom(ops, k+1)
}

func (g *gen) genDelete(o *query.Delete, ops []query.Op, k int) error {
	if o.Col >= len(g.cols) || g.cols[o.Col].Kind == ColVal {
		return fmt.Errorf("%w: Delete column %d is not an object", ErrUnsupported, o.Col)
	}
	aux := 0
	if g.cols[o.Col].Kind == ColRel {
		aux = 1
	}
	g.b.emit(Instr{Op: OpDelete, Dst: NoReg, A: g.cols[o.Col].Reg, B: NoReg, Aux: aux})
	return g.genFrom(ops, k+1)
}

func (g *gen) genPairs(specs []query.PropSpec) ([]Pair, error) {
	pairs := make([]Pair, len(specs))
	for i, s := range specs {
		r, err := g.genExpr(s.Val)
		if err != nil {
			return nil, err
		}
		pairs[i] = Pair{Key: s.Key, Val: r}
	}
	return pairs, nil
}

// constReg memoizes constants into the entry block (§6.2 requirement 2:
// initializations only at the first entry point).
func (g *gen) constReg(v storage.Value) Reg {
	if r, ok := g.consts[v]; ok {
		return r
	}
	r := g.b.val()
	entry := &g.b.fn.Blocks[0].Instrs
	*entry = append(*entry, Instr{Op: OpConst, Dst: r, A: NoReg, B: NoReg, Val: v})
	g.consts[v] = r
	g.types[r] = typeOfValue(v)
	return r
}

func (g *gen) paramReg(name string) Reg {
	if r, ok := g.params[name]; ok {
		return r
	}
	r := g.b.val()
	entry := &g.b.fn.Blocks[0].Instrs
	*entry = append(*entry, Instr{Op: OpLoadParam, Dst: r, A: NoReg, B: NoReg, Sym: name})
	g.params[name] = r
	return r
}

// genExpr generates expression code, returning the value register.
func (g *gen) genExpr(e query.Expr) (Reg, error) {
	b := g.b
	switch x := e.(type) {
	case *query.Const:
		if str, ok := x.Val.(string); ok {
			return g.strConstReg(str), nil
		}
		v, err := encodeConst(x.Val)
		if err != nil {
			return NoReg, err
		}
		return g.constReg(v), nil

	case *query.Param:
		return g.paramReg(x.Name), nil

	case *query.Prop:
		if x.Col >= len(g.cols) {
			return NoReg, fmt.Errorf("%w: prop column %d out of range", ErrUnsupported, x.Col)
		}
		r := b.val()
		switch g.cols[x.Col].Kind {
		case ColNode:
			b.emit(Instr{Op: OpNodeProp, Dst: r, A: g.cols[x.Col].Reg, B: NoReg, Sym: x.Key})
		case ColRel:
			b.emit(Instr{Op: OpRelProp, Dst: r, A: g.cols[x.Col].Reg, B: NoReg, Sym: x.Key})
		default:
			return NoReg, fmt.Errorf("%w: prop of value column", ErrUnsupported)
		}
		return r, nil

	case *query.IDOf:
		if x.Col >= len(g.cols) {
			return NoReg, fmt.Errorf("%w: id column %d out of range", ErrUnsupported, x.Col)
		}
		r := b.val()
		switch g.cols[x.Col].Kind {
		case ColNode:
			b.emit(Instr{Op: OpNodeIDVal, Dst: r, A: g.cols[x.Col].Reg, B: NoReg})
		case ColRel:
			b.emit(Instr{Op: OpRelIDVal, Dst: r, A: g.cols[x.Col].Reg, B: NoReg})
		default:
			return g.cols[x.Col].Reg, nil
		}
		g.types[r] = tyInt
		return r, nil

	case *query.HasLabel:
		if x.Col >= len(g.cols) {
			return NoReg, fmt.Errorf("%w: hasLabel column %d out of range", ErrUnsupported, x.Col)
		}
		r := b.val()
		op := OpNodeLabelEq
		if g.cols[x.Col].Kind == ColRel {
			op = OpRelLabelEq
		}
		b.emit(Instr{Op: op, Dst: r, A: g.cols[x.Col].Reg, B: NoReg, Sym: x.Label})
		g.types[r] = tyBool
		return r, nil

	case *query.Cmp:
		l, err := g.genExpr(x.L)
		if err != nil {
			return NoReg, err
		}
		r, err := g.genExpr(x.R)
		if err != nil {
			return NoReg, err
		}
		dst := b.val()
		op := OpCmpDyn
		lt, rt := g.types[l], g.types[r]
		switch {
		case lt == tyInt && rt == tyInt:
			op = OpCmpI64
		case lt == tyBool && rt == tyBool:
			op = OpCmpBool
		case lt == tyString && rt == tyString && (x.Op == query.Eq || x.Op == query.Ne):
			op = OpCmpCode
		case intConst(x.L) || intConst(x.R):
			// Optimistic: the other side is most likely an integer too,
			// and the guard falls back to the dynamic compare when not.
			op = OpCmpI64Guard
		}
		b.emit(Instr{Op: op, Dst: dst, A: l, B: r, Aux: int(x.Op)})
		g.types[dst] = tyBool
		return dst, nil

	case *query.And:
		l, err := g.genExpr(x.L)
		if err != nil {
			return NoReg, err
		}
		r, err := g.genExpr(x.R)
		if err != nil {
			return NoReg, err
		}
		dst := b.val()
		b.emit(Instr{Op: OpAnd, Dst: dst, A: l, B: r})
		g.types[dst] = tyBool
		return dst, nil

	case *query.Or:
		l, err := g.genExpr(x.L)
		if err != nil {
			return NoReg, err
		}
		r, err := g.genExpr(x.R)
		if err != nil {
			return NoReg, err
		}
		dst := b.val()
		b.emit(Instr{Op: OpOr, Dst: dst, A: l, B: r})
		g.types[dst] = tyBool
		return dst, nil

	case *query.Not:
		a, err := g.genExpr(x.X)
		if err != nil {
			return NoReg, err
		}
		dst := b.val()
		b.emit(Instr{Op: OpNot, Dst: dst, A: a, B: NoReg})
		g.types[dst] = tyBool
		return dst, nil

	default:
		return NoReg, fmt.Errorf("%w: expression %T", ErrUnsupported, e)
	}
}

// intConst reports whether e is an integer literal.
func intConst(e query.Expr) bool {
	c, ok := e.(*query.Const)
	if !ok {
		return false
	}
	switch c.Val.(type) {
	case int, int64:
		return true
	}
	return false
}

func encodeConst(v any) (storage.Value, error) {
	switch x := v.(type) {
	case int:
		return storage.IntValue(int64(x)), nil
	case int64:
		return storage.IntValue(x), nil
	case float64:
		return storage.FloatValue(x), nil
	case bool:
		return storage.BoolValue(x), nil
	default:
		return storage.Value{}, fmt.Errorf("%w: constant %T", ErrUnsupported, v)
	}
}

// strConstReg interns a string constant: it becomes a dictionary lookup
// when the compiled code is linked against the database instance.
func (g *gen) strConstReg(s string) Reg {
	key := "\x00str:" + s
	if r, ok := g.params[key]; ok {
		return r
	}
	r := g.b.val()
	entry := &g.b.fn.Blocks[0].Instrs
	*entry = append(*entry, Instr{Op: OpConstStr, Dst: r, A: NoReg, B: NoReg, Sym: s})
	g.params[key] = r
	g.types[r] = tyString
	return r
}
