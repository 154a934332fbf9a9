package lint

import (
	"go/ast"
)

// seqlock: multi-word record memory (NodeRec/RelRec and property
// chains) is read optimistically under the Bts/Ets seqlock protocol —
// the PR 6 race fix. Every storage.ReadNodeRec / ReadRelRec /
// ReadPropChain / ReadPropChainInto / PropValue call must be justified by
// one of:
//
//   - a seqlock bracket: an enclosing retry loop that snapshots the
//     record's Bts and Ets words before the read, re-reads both after,
//     and re-checks the TxnID lock word (the shape of core's Tx.read,
//     the one read protocol of both record kinds);
//   - a TxnID pin: a CompareAndSwapU64 on the record's TxnID word
//     executed on every path to the read (the shape of core's Tx.lock —
//     the record is locked, so it cannot change under the read);
//   - holding a shard commitMu (directly or via lockShards), which
//     excludes all writers.
//
// The unbounded chain walkers (ReadPropChain, PropValue) are additionally
// flagged inside an optimistic bracket: a torn chain head can send them
// chasing arbitrary garbage — use ReadPropChainInto, whose bound makes a
// torn read terminate and fail the bracket re-check instead.
//
// Readers are matched by name, so a new storage function that loads
// record or chain memory must be registered in recordReads, and a caller
// must reach it lexically inside its bracket, not through a helper: the
// pass cannot see a read it has no name for.
var passSeqlock = &Pass{
	Name: "seqlock",
	Doc:  "record reads need a Bts/Ets seqlock bracket, a TxnID CAS pin, or the shard commitMu",
	Run: func(c *Context) {
		if c.Pkg.Path == c.Kit.m.Path+"/internal/storage" {
			return // the record accessors themselves
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["seqlock"] {
				continue
			}
			if lockAPIFuncs[fi.Name] {
				continue
			}
			checkSeqlock(c, fi)
		}
	},
}

var recordReads = map[string]bool{
	"ReadNodeRec": true, "ReadRelRec": true,
	"ReadPropChain": true, "ReadPropChainInto": true, "PropValue": true,
}

// unboundedChainReads are the recordReads that follow a chain with no
// bound on the records walked.
var unboundedChainReads = map[string]bool{"ReadPropChain": true, "PropValue": true}

// seqState is the must-state on a path: has a TxnID CAS been executed
// on every path here, and which locks may/must be held.
type seqState struct {
	cas   bool // must: CompareAndSwapU64 on a TxnID word seen on all paths
	locks lockState
}

func (s seqState) clone() seqState {
	return seqState{cas: s.cas, locks: s.locks.clone()}
}

func joinSeq(a, b seqState) seqState {
	return seqState{cas: a.cas && b.cas, locks: joinLocks(a.locks, b.locks)}
}

func eqSeq(a, b seqState) bool {
	return a.cas == b.cas && eqLocks(a.locks, b.locks)
}

// mentionsIdent reports whether any of exprs contains an identifier
// with one of the given names (matches both storage.NBts and plain
// NBts spellings).
func mentionsIdent(exprs []ast.Expr, names ...string) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				for _, want := range names {
					if id.Name == want {
						found = true
					}
				}
			}
			return true
		})
	}
	return found
}

// isTxnIDCAS reports a Device.CompareAndSwapU64 whose offset mentions a
// TxnID layout constant.
func isTxnIDCAS(k *Kit, pkg *Package, call *ast.CallExpr) bool {
	if k.Classify(pkg, call) != KCAS {
		return false
	}
	return mentionsIdent(call.Args, "NTxnID", "RTxnID")
}

// isRecordRead resolves a call to one of the storage record accessors.
func isRecordRead(k *Kit, pkg *Package, call *ast.CallExpr) (name string, ok bool) {
	path, _, name, resolved := k.Method(pkg, call)
	if !resolved || path != k.m.Path+"/internal/storage" || !recordReads[name] {
		return "", false
	}
	return name, true
}

// commitMuHeld reports whether some shard commit lock is must-held
// (directly or as a lockShards set).
func commitMuHeld(st lockState) bool {
	for k, v := range st {
		if k.name == "commitMu" && v.min >= 1 {
			return true
		}
	}
	return false
}

// inBracket reports whether call sits inside a seqlock bracket: some
// enclosing for-loop in body whose body re-reads the Bts word before
// and after the call, the Ets word before and after, and the TxnID
// lock word after.
func inBracket(k *Kit, pkg *Package, body *ast.BlockStmt, call *ast.CallExpr) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		f, isFor := n.(*ast.ForStmt)
		if !isFor || f.Pos() > call.Pos() || call.End() > f.End() {
			return true
		}
		var btsBefore, btsAfter, etsBefore, etsAfter, txnAfter bool
		ast.Inspect(f.Body, func(x ast.Node) bool {
			if _, isLit := x.(*ast.FuncLit); isLit {
				return false
			}
			c, isCall := x.(*ast.CallExpr)
			if !isCall || c == call {
				return true
			}
			path, typ, name, resolved := k.Method(pkg, c)
			if !resolved || path != k.pmemPath || typ != "Device" || name != "ReadU64" {
				return true
			}
			before := c.Pos() < call.Pos()
			if mentionsIdent(c.Args, "NBts", "RBts") {
				if before {
					btsBefore = true
				} else {
					btsAfter = true
				}
			}
			if mentionsIdent(c.Args, "NEts", "REts") {
				if before {
					etsBefore = true
				} else {
					etsAfter = true
				}
			}
			if !before && mentionsIdent(c.Args, "NTxnID", "RTxnID") {
				txnAfter = true
			}
			return true
		})
		if btsBefore && btsAfter && etsBefore && etsAfter && txnAfter {
			ok = true
		}
		return true
	})
	return ok
}

func checkSeqlock(c *Context, fi FuncInfo) {
	// Cheap pre-scan: skip the dataflow when the body has no record
	// reads at all (the common case module-wide).
	any := false
	forEachCall(fi, func(call *ast.CallExpr) {
		if _, ok := isRecordRead(c.Kit, fi.Pkg, call); ok {
			any = true
		}
	})
	if !any {
		return
	}

	g := c.Kit.BuildCFG(fi)
	step := func(st seqState, n ast.Node, report bool) seqState {
		nodeCalls(n, func(call *ast.CallExpr) {
			if report {
				if name, ok := isRecordRead(c.Kit, fi.Pkg, call); ok {
					pinned := st.cas || commitMuHeld(st.locks)
					bracket := inBracket(c.Kit, fi.Pkg, fi.Body, call)
					switch {
					case pinned:
						// Writers are excluded; any accessor is safe.
					case !bracket:
						c.Reportf(call.Pos(), "%s outside a seqlock bracket: wrap it in a Bts/Ets snapshot + TxnID re-check retry loop (see core.Tx.read), pin the record with a TxnID CAS, or hold the shard commitMu", name)
					case unboundedChainReads[name]:
						c.Reportf(call.Pos(), "unbounded %s inside an optimistic seqlock bracket can chase a torn chain; use ReadPropChainInto so a torn read terminates and fails the re-check", name)
					}
				}
			}
			if isTxnIDCAS(c.Kit, fi.Pkg, call) {
				st.cas = true
			}
		})
		st.locks = lockStep(c, fi, st.locks, n, nil)
		return st
	}
	silent := func(st seqState, n ast.Node) seqState { return step(st, n, false) }
	in := runFlow(g, seqState{locks: lockState{}}, seqState.clone, joinSeq, eqSeq, silent)
	walkFinal(g, in, seqState.clone, func(st seqState, n ast.Node) seqState {
		return step(st, n, true)
	})
}
