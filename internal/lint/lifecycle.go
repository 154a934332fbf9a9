package lint

import (
	"go/ast"
	"go/types"
)

// lifecycle: resources with an explicit close protocol must be released
// on every path or handed to someone who will. The tracked types and
// their release methods:
//
//	*trace.Span     → End       (a span never Ended never exports; its
//	                             children mis-parent — the PR 8 hazard)
//	*poseidon.Rows  → Close / Collect  (an unclosed cursor pins a reader
//	                             transaction and its MVTO snapshot)
//	*poseidon.Session → Close   (leaks tracked transactions)
//	*client.Conn    → Close     (leaks the socket and a server slot)
//
// The analysis is a may-leak union over the CFG: a resource bound to a
// local that can reach a return point still open — with no deferred
// release — is flagged at its creation site. Values that escape (passed
// to a call, returned, stored into a struct/slice/map/channel, captured
// by a closure) transfer ownership and are not tracked; a creation whose
// result is discarded outright is flagged immediately.
var passLifecycle = &Pass{
	Name: "lifecycle",
	Doc:  "spans must be Ended and Rows/Session/Conn Closed on every path, or escape to a new owner",
	Run: func(c *Context) {
		if c.Pkg.Path == c.Kit.tracePath {
			return // the span machinery itself
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["lifecycle"] {
				continue
			}
			checkLifecycle(c, fi)
		}
	},
}

// lifeResource describes one tracked resource type.
type lifeResource struct {
	kind    string // human name in reports
	release map[string]bool
}

// lifeResourceFor classifies a type as tracked (after stripping one
// pointer).
func (c *Context) lifeResourceFor(t types.Type) (lifeResource, bool) {
	p, ok := t.(*types.Pointer)
	if !ok {
		return lifeResource{}, false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return lifeResource{}, false
	}
	path, name := n.Obj().Pkg().Path(), n.Obj().Name()
	k := c.Kit
	switch {
	case path == k.tracePath && name == "Span":
		return lifeResource{kind: "trace span", release: map[string]bool{"End": true}}, true
	case path == k.m.Path && name == "Rows":
		return lifeResource{kind: "Rows cursor", release: map[string]bool{"Close": true, "Collect": true}}, true
	case path == k.m.Path && name == "Session":
		return lifeResource{kind: "Session", release: map[string]bool{"Close": true}}, true
	case path == k.m.Path+"/client" && name == "Conn":
		return lifeResource{kind: "client connection", release: map[string]bool{"Close": true}}, true
	}
	return lifeResource{}, false
}

// creationIn finds tracked resources created by call: the indices of
// its result tuple whose types are tracked. Only calls to creators —
// functions that (transitively) contain a composite literal of a
// tracked type — count; accessors like trace.FromContext return an
// existing handle, not a fresh obligation. pending reports whether the
// call also returns an error: such results are nil until the error is
// checked, so they only become an obligation on first use.
func (c *Context) creationIn(pkg *Package, call *ast.CallExpr) (out map[int]lifeResource, pending bool) {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil, false
	}
	note := func(i int, t types.Type) {
		if r, tracked := c.lifeResourceFor(t); tracked {
			if out == nil {
				out = map[int]lifeResource{}
			}
			out[i] = r
		}
	}
	errType := types.Universe.Lookup("error").Type()
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			note(i, t.At(i).Type())
			if types.Identical(t.At(i).Type(), errType) {
				pending = true
			}
		}
	default:
		note(0, t)
	}
	if out == nil {
		return nil, false
	}
	fn := c.Kit.Callee(pkg, call)
	if fn == nil || !c.Kit.MayCreate(fn) {
		return nil, false
	}
	return out, pending
}

// lifeTracked is one resource bound to a local identifier.
type lifeTracked struct {
	obj     types.Object
	res     lifeResource
	call    *ast.CallExpr // creation site, for reporting
	pending bool          // from a (T, error) call: nil until err is checked
}

// lifeState maps a tracked local to its obligation strength. A pending
// resource came from a (T, error) call and is nil until the error is
// checked; it is promoted to open on first use through the identifier.
// Only open resources are reported at exit — so the common
//
//	rows, err := s.Query(...)
//	if err != nil { return err }   // rows is nil here, nothing to close
//
// idiom is clean, while leaking an actually-used handle is not.
const (
	lifePending = 1
	lifeOpen    = 2
)

type lifeState map[types.Object]int // may-live resources

func (s lifeState) clone() lifeState {
	out := make(lifeState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLife(a, b lifeState) lifeState {
	out := a.clone()
	for k, v := range b {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

func eqLife(a, b lifeState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func checkLifecycle(c *Context, fi FuncInfo) {
	pkg := fi.Pkg

	// Pass 1: find creations bound to local idents, and creations whose
	// results are discarded outright.
	tracked := map[types.Object]*lifeTracked{}
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			created, pending := c.creationIn(pkg, call)
			for i, res := range created {
				if i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					if !pending {
						c.Reportf(call.Pos(), "%s assigned to _ is never %s; bind it and release it", res.kind, releaseName(res))
					}
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj != nil {
					tracked[obj] = &lifeTracked{obj: obj, res: res, call: call, pending: pending}
				}
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			created, pending := c.creationIn(pkg, call)
			if pending {
				return true // (T, error) result can't appear as a bare ExprStmt
			}
			for _, res := range created {
				c.Reportf(call.Pos(), "%s discarded: the result is never %s; bind it and release it", res.kind, releaseName(res))
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// Pass 2: escape analysis. Any use of a tracked ident other than a
	// method call / field access through it, or a bare nil-check-style
	// comparison, transfers ownership — stop tracking it.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			// Captured by a closure: the closure owns it now. Returning
			// false skips the pop, so don't push the literal.
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						delete(tracked, obj)
					}
				}
				return true
			})
			return false
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil || tracked[obj] == nil {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.SelectorExpr:
			if p.X == id {
				return true // sp.End(), rows.Next(), rows.err — a use, not a transfer
			}
		case *ast.BinaryExpr:
			return true // if sp != nil { ... }
		case *ast.AssignStmt:
			// Being the LHS target (re-binding) is handled by the
			// dataflow; being an RHS value transfers ownership.
			for _, l := range p.Lhs {
				if l == id {
					return true
				}
			}
		}
		delete(tracked, obj)
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// Pass 3: may-leak dataflow. Deferred releases apply at Exit.
	g := c.Kit.BuildCFG(fi)
	releasedBy := func(call *ast.CallExpr) types.Object {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return nil
		}
		if t := tracked[obj]; t != nil && t.res.release[sel.Sel.Name] {
			return obj
		}
		return nil
	}
	// promote upgrades pending resources to open on first use through the
	// identifier (rows.Next(), rows.Collect(), ...): past the error check
	// the handle is live and must be released.
	promote := func(st lifeState, n ast.Node) {
		switch n.(type) {
		case *ast.SelectStmt, *ast.ReturnStmt:
			return // marker nodes: children appear as their own CFG nodes
		}
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := pkg.Info.Uses[id]; obj != nil && st[obj] == lifePending {
					st[obj] = lifeOpen
				}
			}
			return true
		})
	}
	step := func(st lifeState, n ast.Node) lifeState {
		promote(st, n)
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				created, _ := c.creationIn(pkg, call)
				for i := range created {
					if i < len(as.Lhs) {
						if id, ok := as.Lhs[i].(*ast.Ident); ok {
							var obj types.Object = pkg.Info.Defs[id]
							if obj == nil {
								obj = pkg.Info.Uses[id]
							}
							if t := tracked[obj]; t != nil {
								if t.pending {
									st[obj] = lifePending
								} else {
									st[obj] = lifeOpen
								}
							}
						}
					}
				}
			}
		}
		nodeCalls(n, func(call *ast.CallExpr) {
			if obj := releasedBy(call); obj != nil {
				delete(st, obj)
			}
		})
		return st
	}
	in := runFlow(g, lifeState{}, lifeState.clone, joinLife, eqLife, step)
	exit, reachable := exitStates(g, in, lifeState.clone, joinLife, step)
	if !reachable {
		return // every path panics
	}
	for _, d := range g.Defers {
		if obj := releasedBy(d); obj != nil {
			delete(exit, obj)
		}
		if lit, ok := d.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if obj := releasedBy(call); obj != nil {
						delete(exit, obj)
					}
				}
				return true
			})
		}
	}
	for obj, v := range exit {
		if v != lifeOpen {
			continue // pending at exit: an error path where the handle is nil
		}
		t := tracked[obj]
		c.Reportf(t.call.Pos(), "%s %q may still be open at return on some path in %s; %s it on every path (or defer it)", t.res.kind, obj.Name(), fi.Name, releaseName(t.res))
	}
}

func releaseName(r lifeResource) string {
	if r.release["End"] {
		return "End"
	}
	return "Close"
}
