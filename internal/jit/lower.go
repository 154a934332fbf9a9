package jit

import (
	"fmt"
	"sync/atomic"

	"poseidon/internal/core"
	"poseidon/internal/query"
	"poseidon/internal/storage"
)

// The backend: lowering optimized IR into specialized Go closures. This
// plays the role of LLVM's machine-code emission in the paper — the
// generated "code" is a flat array of step closures per basic block, each
// specialized at link time with its operand registers, resolved
// dictionary codes and immediates. Executing a pipeline costs one
// indirect call per step and one per block transfer and allocates nothing
// per record it scans or expands: values live in registers, the iterators
// of each pipeline position stay in the Exec from run to run, and the
// property sets of their snapshots go to the iterators' slabs. The one
// boxed tuple is the row handed to the sink at OpEmit — in contrast to
// the AOT interpreter's per-operator dynamic dispatch and per-tuple
// copies.

// machine is the register file of a lowered pipeline.
type machine struct {
	ctx   *query.Ctx
	emit  query.Sink
	chunk uint64

	vals  []storage.Value
	nodes []core.NodeSnap
	rels  []core.RelSnap
	iters []any
	slots []storage.Value

	err error
}

type nodeIter interface {
	Next() (bool, error)
	Node() core.NodeSnap
}

type relIter interface {
	Next() (bool, error)
	Rel() core.RelSnap
}

// stepFn executes one lowered instruction. A false return halts the
// block; the machine's err field distinguishes failure from early exit.
type stepFn func(m *machine) bool

type lblock struct {
	steps []stepFn
	term  func(m *machine) int // next block index, -1 = return
}

// Program is a lowered, executable pipeline — the equivalent of the
// paper's linked binary object.
type Program struct {
	fn      *Fn
	blocks  []lblock
	OutCols []Col
}

// lazyCode resolves a dictionary string once, at first execution.
type lazyCode struct {
	name string
	code atomic.Uint64 // 0 unresolved; ^0 = known-missing marker handled below
}

func (c *lazyCode) get(e *core.Engine) (uint32, bool) {
	if v := c.code.Load(); v != 0 {
		return uint32(v), true
	}
	if c.name == "" {
		return 0, true // empty = no filter
	}
	v, ok := e.Dict().Lookup(c.name)
	if !ok {
		return 0, false
	}
	c.code.Store(v)
	return uint32(v), true
}

// Lower translates an optimized IR function into an executable Program.
func Lower(fn *Fn) (*Program, error) {
	p := &Program{fn: fn, OutCols: fn.OutCols}
	p.blocks = make([]lblock, len(fn.Blocks))
	for i, blk := range fn.Blocks {
		steps := make([]stepFn, 0, len(blk.Instrs))
		for _, in := range blk.Instrs {
			s, err := lowerInstr(in)
			if err != nil {
				return nil, err
			}
			steps = append(steps, s)
		}
		p.blocks[i] = lblock{steps: steps, term: lowerTerm(blk)}
	}
	return p, nil
}

func lowerTerm(blk *Block) func(*machine) int {
	switch blk.Kind {
	case TermJump:
		to := blk.To
		return func(*machine) int { return to }
	case TermBranch:
		cond, to, els := blk.Cond, blk.To, blk.Else
		return func(m *machine) int {
			if m.vals[cond].Type == storage.TypeBool && m.vals[cond].Bool() {
				return to
			}
			return els
		}
	default:
		return func(*machine) int { return -1 }
	}
}

func cmpOrd(aux int, c int) bool {
	switch aux {
	case cmpEq:
		return c == 0
	case cmpNe:
		return c != 0
	case cmpLt:
		return c < 0
	case cmpLe:
		return c <= 0
	case cmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func i64cmp(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func lowerInstr(in Instr) (stepFn, error) {
	dst, a, b := in.Dst, in.A, in.B
	switch in.Op {
	case OpConst:
		v := in.Val
		return func(m *machine) bool { m.vals[dst] = v; return true }, nil

	case OpConstStr:
		// String constants are interned, not merely looked up: a compiled
		// CREATE/SET must be able to introduce a brand-new string (the
		// interpreter interns at prepare time via EncodeValue).
		lc := &lazyCode{name: in.Sym}
		return func(m *machine) bool {
			if code, ok := lc.get(m.ctx.E); ok {
				m.vals[dst] = storage.StringValue(uint64(code))
				return true
			}
			code, err := m.ctx.E.Dict().Encode(in.Sym)
			if err != nil {
				m.err = err
				return false
			}
			lc.code.Store(code)
			m.vals[dst] = storage.StringValue(code)
			return true
		}, nil

	case OpLoadParam:
		name := in.Sym
		return func(m *machine) bool {
			v, ok := m.ctx.Params[name]
			if !ok {
				m.err = fmt.Errorf("jit: unbound parameter $%s", name)
				return false
			}
			m.vals[dst] = v
			return true
		}, nil

	case OpLoadChunk:
		return func(m *machine) bool {
			m.vals[dst] = storage.IntValue(int64(m.chunk))
			return true
		}, nil

	case OpAlloca:
		v := in.Val
		return func(m *machine) bool { m.slots[dst] = v; return true }, nil

	case OpLoad:
		return func(m *machine) bool { m.vals[dst] = m.slots[a]; return true }, nil

	case OpStore:
		return func(m *machine) bool { m.slots[dst] = m.vals[a]; return true }, nil

	case OpAddI64:
		return func(m *machine) bool {
			m.vals[dst] = storage.IntValue(m.vals[a].Int() + m.vals[b].Int())
			return true
		}, nil

	case OpAnd:
		return func(m *machine) bool {
			m.vals[dst] = storage.BoolValue(m.vals[a].Bool() && m.vals[b].Bool())
			return true
		}, nil

	case OpOr:
		return func(m *machine) bool {
			m.vals[dst] = storage.BoolValue(m.vals[a].Bool() || m.vals[b].Bool())
			return true
		}, nil

	case OpNot:
		return func(m *machine) bool {
			m.vals[dst] = storage.BoolValue(!m.vals[a].Bool())
			return true
		}, nil

	case OpCmpI64:
		aux := in.Aux
		return func(m *machine) bool {
			m.vals[dst] = storage.BoolValue(cmpOrd(aux, i64cmp(m.vals[a].Int(), m.vals[b].Int())))
			return true
		}, nil

	case OpCmpI64Guard:
		aux := in.Aux
		return func(m *machine) bool {
			l, r := m.vals[a], m.vals[b]
			if l.Type == storage.TypeInt && r.Type == storage.TypeInt {
				m.vals[dst] = storage.BoolValue(cmpOrd(aux, i64cmp(l.Int(), r.Int())))
				return true
			}
			ok, err := query.CompareValues(m.ctx.E, query.CmpOp(aux), l, r)
			if err != nil {
				m.err = err
				return false
			}
			m.vals[dst] = storage.BoolValue(ok)
			return true
		}, nil

	case OpCmpBool:
		aux := in.Aux
		return func(m *machine) bool {
			l, r := 0, 0
			if m.vals[a].Bool() {
				l = 1
			}
			if m.vals[b].Bool() {
				r = 1
			}
			m.vals[dst] = storage.BoolValue(cmpOrd(aux, l-r))
			return true
		}, nil

	case OpCmpCode:
		aux := in.Aux
		return func(m *machine) bool {
			eq := m.vals[a].Type == m.vals[b].Type && m.vals[a].Raw == m.vals[b].Raw
			m.vals[dst] = storage.BoolValue((aux == cmpEq) == eq)
			return true
		}, nil

	case OpCmpDyn:
		aux := in.Aux
		return func(m *machine) bool {
			ok, err := query.CompareValues(m.ctx.E, query.CmpOp(aux), m.vals[a], m.vals[b])
			if err != nil {
				m.err = err
				return false
			}
			m.vals[dst] = storage.BoolValue(ok)
			return true
		}, nil

	case OpNodeIDVal:
		return func(m *machine) bool {
			m.vals[dst] = storage.IntValue(int64(m.nodes[a].ID))
			return true
		}, nil

	case OpRelIDVal:
		return func(m *machine) bool {
			m.vals[dst] = storage.IntValue(int64(m.rels[a].ID))
			return true
		}, nil

	case OpNodeProp:
		lc := &lazyCode{name: in.Sym}
		return func(m *machine) bool {
			code, ok := lc.get(m.ctx.E)
			if !ok {
				m.vals[dst] = storage.Value{}
				return true
			}
			v, _ := m.nodes[a].Prop(code)
			m.vals[dst] = v
			return true
		}, nil

	case OpRelProp:
		lc := &lazyCode{name: in.Sym}
		return func(m *machine) bool {
			code, ok := lc.get(m.ctx.E)
			if !ok {
				m.vals[dst] = storage.Value{}
				return true
			}
			v, _ := m.rels[a].Prop(code)
			m.vals[dst] = v
			return true
		}, nil

	case OpNodeLabelEq:
		lc := &lazyCode{name: in.Sym}
		return func(m *machine) bool {
			code, ok := lc.get(m.ctx.E)
			m.vals[dst] = storage.BoolValue(ok && m.nodes[a].Rec.Label == code)
			return true
		}, nil

	case OpRelLabelEq:
		lc := &lazyCode{name: in.Sym}
		return func(m *machine) bool {
			code, ok := lc.get(m.ctx.E)
			m.vals[dst] = storage.BoolValue(ok && m.rels[a].Rec.Label == code)
			return true
		}, nil

	case OpRelSrcID:
		return func(m *machine) bool {
			m.vals[dst] = storage.IntValue(int64(m.rels[a].Rec.Src))
			return true
		}, nil

	case OpRelDstID:
		return func(m *machine) bool {
			m.vals[dst] = storage.IntValue(int64(m.rels[a].Rec.Dst))
			return true
		}, nil

	case OpRelOtherID:
		return func(m *machine) bool {
			r := m.rels[a].Rec
			if r.Src == m.nodes[b].ID {
				m.vals[dst] = storage.IntValue(int64(r.Dst))
			} else {
				m.vals[dst] = storage.IntValue(int64(r.Src))
			}
			return true
		}, nil

	case OpGetNode:
		dst2 := in.Dst2
		return func(m *machine) bool {
			snap, err := m.ctx.Tx.GetNode(uint64(m.vals[a].Int()))
			switch err {
			case nil:
				m.nodes[dst] = snap
				m.vals[dst2] = storage.BoolValue(true)
			case core.ErrNotFound:
				m.vals[dst2] = storage.BoolValue(false)
			default:
				m.err = err
				return false
			}
			return true
		}, nil

	case OpIterChunkInit, OpIterRelChunkInit:
		lc := &lazyCode{name: in.Sym}
		rel := in.Op == OpIterRelChunkInit
		return func(m *machine) bool {
			tbl := m.ctx.E.Nodes()
			if rel {
				tbl = m.ctx.E.Rels()
			}
			var from, to uint64 // an unknown label scans nothing
			code, ok := lc.get(m.ctx.E)
			if ok {
				from, to = query.MorselRange(uint64(m.vals[a].Int()), tbl.ChunkCap())
			}
			if rel {
				iterAt[core.RelTableIter](m, dst).Reset(m.ctx.Tx, from, to, code)
			} else {
				iterAt[core.NodeIter](m, dst).Reset(m.ctx.Tx, from, to, code)
			}
			return true
		}, nil

	case OpIterOutRels, OpIterInRels:
		lc := &lazyCode{name: in.Sym}
		out := in.Op == OpIterOutRels
		return func(m *machine) bool {
			head := storage.NilID // an unknown label walks nothing
			code, ok := lc.get(m.ctx.E)
			if ok && out {
				head = m.nodes[a].Rec.Out
			} else if ok {
				head = m.nodes[a].Rec.In
			}
			iterAt[core.AdjIter](m, dst).Reset(m.ctx.Tx, head, out, code)
			return true
		}, nil

	case OpIterIndex:
		label, key, ok := cutNull(in.Sym)
		if !ok {
			return nil, fmt.Errorf("jit: malformed index symbol %q", in.Sym)
		}
		return func(m *machine) bool {
			tree, ok := m.ctx.E.IndexFor(label, key)
			if !ok {
				m.err = fmt.Errorf("jit: no index on (%s, %s)", label, key)
				return false
			}
			if err := iterAt[core.IndexIter](m, dst).Reset(m.ctx.Tx, tree, m.vals[a]); err != nil {
				m.err = err
				return false
			}
			return true
		}, nil

	case OpIterNext:
		return func(m *machine) bool {
			type nexter interface{ Next() (bool, error) }
			ok, err := m.iters[a].(nexter).Next()
			if err != nil {
				m.err = err
				return false
			}
			m.vals[dst] = storage.BoolValue(ok)
			return true
		}, nil

	case OpIterNodeGet:
		return func(m *machine) bool {
			m.nodes[dst] = m.iters[a].(nodeIter).Node()
			return true
		}, nil

	case OpIterRelGet:
		return func(m *machine) bool {
			m.rels[dst] = m.iters[a].(relIter).Rel()
			return true
		}, nil

	case OpCreateNode:
		label := in.Sym
		pairs := in.Pairs
		return func(m *machine) bool {
			props, ok := m.pairProps(pairs)
			if !ok {
				return false
			}
			id, err := m.ctx.Tx.CreateNode(label, props)
			if err != nil {
				m.err = err
				return false
			}
			snap, err := m.ctx.Tx.GetNode(id)
			if err != nil {
				m.err = err
				return false
			}
			m.nodes[dst] = snap
			return true
		}, nil

	case OpCreateRel:
		label := in.Sym
		pairs := in.Pairs
		return func(m *machine) bool {
			props, ok := m.pairProps(pairs)
			if !ok {
				return false
			}
			id, err := m.ctx.Tx.CreateRel(m.nodes[a].ID, m.nodes[b].ID, label, props)
			if err != nil {
				m.err = err
				return false
			}
			snap, err := m.ctx.Tx.GetRel(id)
			if err != nil {
				m.err = err
				return false
			}
			m.rels[dst] = snap
			return true
		}, nil

	case OpSetProps:
		pairs := in.Pairs
		isRel := in.Aux == 1
		return func(m *machine) bool {
			props, ok := m.pairProps(pairs)
			if !ok {
				return false
			}
			var err error
			if isRel {
				err = m.ctx.Tx.SetRelProps(m.rels[a].ID, props)
			} else {
				err = m.ctx.Tx.SetNodeProps(m.nodes[a].ID, props)
			}
			if err != nil {
				m.err = err
				return false
			}
			return true
		}, nil

	case OpDelete:
		isRel := in.Aux == 1
		return func(m *machine) bool {
			var err error
			if isRel {
				err = m.ctx.Tx.DeleteRel(m.rels[a].ID)
			} else {
				err = m.ctx.Tx.DetachDeleteNode(m.nodes[a].ID)
			}
			if err != nil {
				m.err = err
				return false
			}
			return true
		}, nil

	case OpEmit:
		cols := in.Cols
		return func(m *machine) bool {
			t := make(query.Tuple, len(cols))
			for i, c := range cols {
				switch c.Kind {
				case ColNode:
					t[i] = query.Datum{Kind: query.DNode, Node: m.nodes[c.Reg]}
				case ColRel:
					t[i] = query.Datum{Kind: query.DRel, Rel: m.rels[c.Reg]}
				default:
					t[i] = query.Datum{Kind: query.DVal, Val: m.vals[c.Reg]}
				}
			}
			cont, err := m.emit(t)
			if err != nil {
				m.err = err
				return false
			}
			m.vals[dst] = storage.BoolValue(cont)
			return true
		}, nil

	default:
		return nil, fmt.Errorf("jit: cannot lower opcode %d", in.Op)
	}
}

func cutNull(s string) (string, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// pairProps evaluates update property pairs from value registers.
func (m *machine) pairProps(pairs []Pair) (map[string]any, bool) {
	if len(pairs) == 0 {
		return nil, true
	}
	props := make(map[string]any, len(pairs))
	for _, p := range pairs {
		gv, err := m.ctx.E.DecodeValue(m.vals[p.Val])
		if err != nil {
			m.err = err
			return nil, false
		}
		props[p.Key] = gv
	}
	return props, true
}

// iterAt returns the iterator of type T held in iterator register r,
// creating it at the position's first use. An Exec keeps it — and the
// slab of property sets behind it — from one run (morsel) to the next.
func iterAt[T any](m *machine, r Reg) *T {
	it, ok := m.iters[r].(*T)
	if !ok {
		it = new(T)
		m.iters[r] = it
	}
	return it
}

// Exec is a per-worker execution context reusing one machine across runs
// (morsels).
type Exec struct {
	p *Program
	m machine
}

// NewExec creates an execution context for the program.
func (p *Program) NewExec() *Exec {
	return &Exec{
		p: p,
		m: machine{
			vals:  make([]storage.Value, p.fn.NumVals),
			nodes: make([]core.NodeSnap, p.fn.NumNodes),
			rels:  make([]core.RelSnap, p.fn.NumRels),
			iters: make([]any, p.fn.NumIters),
			slots: make([]storage.Value, p.fn.NumSlots),
		},
	}
}

// Run executes the pipeline once: over morsel chunk of the table when its
// leaf is a scan, whole — chunk ignored — from any other access path.
func (e *Exec) Run(ctx *query.Ctx, chunk uint64, emit query.Sink) error {
	m := &e.m
	m.ctx, m.emit, m.chunk, m.err = ctx, emit, chunk, nil
	blocks := e.p.blocks
	idx := 0
	for idx >= 0 {
		blk := &blocks[idx]
		for _, s := range blk.steps {
			if !s(m) {
				return m.err
			}
		}
		idx = blk.term(m)
	}
	return m.err
}
