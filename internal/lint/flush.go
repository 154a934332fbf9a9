package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flush-discipline: a function that stores to a pmem.Device (or writes
// a PPtr through a Pool) must reach a Flush/Persist covering the store
// on every path to return, or be annotated //pmem:deferred-flush with a
// reason. Functions running under a pmemobj transaction are exempt —
// the commit protocol flushes every touched range (and pass tx-undo-log
// checks them instead). This is the static analogue of PMDK pmemcheck's
// "stored without flush" report.
var passFlushDiscipline = &Pass{
	Name: "flush-discipline",
	Doc:  "pmem stores must be flushed on every path to return (//pmem:deferred-flush to defer to the caller)",
	Run: func(c *Context) {
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Deferred || fi.Ignored["flush-discipline"] {
				continue
			}
			if c.Kit.TxCovered(fi) {
				continue
			}
			w := &flushWalker{c: c, fi: fi, found: map[token.Pos]string{}, dram: c.Kit.DRAMLocals(fi)}
			st := flushState{pending: map[token.Pos]string{}}
			st = w.stmt(fi.Body, st)
			if !st.terminated {
				w.flushPoint(st) // implicit return at end of body
			}
			for pos, what := range w.found {
				c.Reportf(pos, "%s store in %s is not flushed on every path to return; call Flush/Persist or annotate //pmem:deferred-flush <reason>", what, fi.Name)
			}
		}
	},
}

// flushState is the abstract state at one program point: which stores
// are not yet covered by a flush, whether a flush is deferred, and
// whether this path has terminated (return/panic).
type flushState struct {
	pending    map[token.Pos]string
	deferFlush bool
	terminated bool
}

func (s flushState) clone() flushState {
	p := make(map[token.Pos]string, len(s.pending))
	for k, v := range s.pending {
		p[k] = v
	}
	return flushState{pending: p, deferFlush: s.deferFlush, terminated: s.terminated}
}

func join(a, b flushState) flushState {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	out := a.clone()
	for k, v := range b.pending {
		out.pending[k] = v
	}
	out.deferFlush = a.deferFlush || b.deferFlush
	return out
}

type flushWalker struct {
	c     *Context
	fi    FuncInfo
	found map[token.Pos]string
	dram  map[types.Object]bool // locals bound to pmem.NewDRAM devices
}

// flushPoint records every pending store as unflushed at a return.
func (w *flushWalker) flushPoint(st flushState) {
	if st.deferFlush {
		return
	}
	for pos, what := range st.pending {
		w.found[pos] = what
	}
}

// scan applies call effects inside a non-statement node, in pre-order
// (close enough to evaluation order for this analysis). Function
// literals are skipped — they run later and are analyzed separately.
func (w *flushWalker) scan(n ast.Node, st flushState) flushState {
	if n == nil {
		return st
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case ast.Stmt:
			return true
		case *ast.CallExpr:
			st = w.call(x, st)
		}
		return true
	})
	return st
}

func (w *flushWalker) call(call *ast.CallExpr, st flushState) flushState {
	k := w.c.Kit
	switch k.Classify(w.fi.Pkg, call) {
	case KStore:
		if k.StoreToDRAM(w.fi, w.dram, call) {
			break
		}
		_, _, name, _ := k.Method(w.fi.Pkg, call)
		st.pending[call.Pos()] = name
	case KFlush:
		st.pending = map[token.Pos]string{}
	case KCAS, KUndo:
		// CaS is 8-byte failure-atomic control state (recovery revalidates
		// it); undo-log writes are the log's own protocol. Neither needs a
		// covering flush here.
	default:
		if isPanicLike(w.fi.Pkg, call) {
			st.terminated = true
			st.pending = map[token.Pos]string{}
			return st
		}
		if callee := k.Callee(w.fi.Pkg, call); callee != nil {
			switch {
			case k.MayFlush(callee):
				// Assume the callee (or the commit protocol it enters)
				// covers anything pending; a callee that both stores and
				// flushes is trusted to be internally disciplined.
				st.pending = map[token.Pos]string{}
			case k.MayStore(callee):
				st.pending[call.Pos()] = callee.Name()
			}
		}
	}
	return st
}

func (w *flushWalker) stmt(s ast.Stmt, st flushState) flushState {
	switch s := s.(type) {
	case nil:
		return st
	case *ast.BlockStmt:
		for _, sub := range s.List {
			st = w.stmt(sub, st)
		}
		return st
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.scan(r, st)
		}
		w.flushPoint(st)
		st.terminated = true
		st.pending = map[token.Pos]string{}
		return st
	case *ast.IfStmt:
		st = w.scan(s.Init, st)
		st = w.scan(s.Cond, st)
		then := w.stmt(s.Body, st.clone())
		els := st
		if s.Else != nil {
			els = w.stmt(s.Else, st.clone())
		}
		return join(then, els)
	case *ast.ForStmt:
		st = w.scan(s.Init, st)
		st = w.scan(s.Cond, st)
		body := w.stmt(s.Body, st.clone())
		body = w.scan(s.Post, body)
		body.terminated = false
		return join(st, body)
	case *ast.RangeStmt:
		st = w.scan(s.X, st)
		body := w.stmt(s.Body, st.clone())
		body.terminated = false
		return join(st, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, st)
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			st = w.scan(a, st)
		}
		k := w.c.Kit
		if k.Classify(w.fi.Pkg, s.Call) == KFlush {
			st.deferFlush = true
		} else if callee := k.Callee(w.fi.Pkg, s.Call); callee != nil && k.MayFlush(callee) {
			st.deferFlush = true
		} else if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && litMayFlush(w.c.Kit, w.fi.Pkg, lit) {
			st.deferFlush = true
		}
		return st
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			st = w.scan(a, st)
		}
		return st
	default:
		return w.scan(s, st)
	}
}

// branches joins the arms of a switch/type-switch/select; the pre-state
// joins in too unless there is a default clause.
func (w *flushWalker) branches(s ast.Stmt, st flushState) flushState {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		st = w.scan(s.Init, st)
		st = w.scan(s.Tag, st)
		body = s.Body
	case *ast.TypeSwitchStmt:
		st = w.scan(s.Init, st)
		st = w.scan(s.Assign, st)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := flushState{terminated: true, pending: map[token.Pos]string{}}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			arm := st.clone()
			for _, e := range c.List {
				arm = w.scan(e, arm)
			}
			for _, sub := range c.Body {
				arm = w.stmt(sub, arm)
			}
			out = join(out, arm)
			continue
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			arm := st.clone()
			arm = w.stmt(c.Comm, arm)
			stmts = c.Body
			for _, sub := range stmts {
				arm = w.stmt(sub, arm)
			}
			out = join(out, arm)
		}
	}
	if !hasDefault {
		out = join(out, st)
	}
	return out
}

// litMayFlush reports whether a deferred func literal directly flushes.
func litMayFlush(k *Kit, pkg *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if k.Classify(pkg, call) == KFlush {
				found = true
			}
			if callee := k.Callee(pkg, call); callee != nil && k.MayFlush(callee) {
				found = true
			}
		}
		return !found
	})
	return found
}
