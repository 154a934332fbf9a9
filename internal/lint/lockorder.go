package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockorder: CFG-based discipline for the engine's hand-rolled lock
// hierarchy (commitMu, idxMu, beginMu, mediaMu — the locks the PR 6
// race matrix was built around). Superseding the shallow AST-only
// shardlock pass, it runs a forward lock-set dataflow over each
// function's CFG and reports:
//
//   - a second shard commit lock acquired directly (two distinct
//     commitMu instances, or one instance re-acquired — the loop-carried
//     case the old pass special-cased falls out of the back edge): only
//     lockShards/lockAllShards may hold several, in ascending order;
//   - any modeled mutex write-locked twice on a path (self-deadlock);
//   - a lock still (possibly) held at a return point with no deferred
//     release — the "missed unlock on the error path" class;
//   - a blocking operation (channel send/receive, select, Wait, Sleep,
//     or a callee that may block per the interprocedural summaries)
//     reached while a modeled write lock is held.
var passLockOrder = &Pass{
	Name: "lockorder",
	Doc:  "commitMu/idxMu/beginMu/mediaMu: ascending shard-lock order via lockShards, release on every path, no blocking calls under a lock",
	Run: func(c *Context) {
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["lockorder"] {
				continue
			}
			// The blessed acquisition/release helpers are the lock API
			// itself: lockShards' ascending loop is the one place
			// multi-lock is allowed, and all four return holding (or
			// having released) locks by design.
			if lockAPIFuncs[fi.Name] {
				continue
			}
			checkLockOrder(c, fi)
		}
	},
}

// modeledLocks are the mutex fields the pass tracks, by field name.
var modeledLocks = map[string]bool{
	"commitMu": true, "idxMu": true, "beginMu": true, "mediaMu": true,
}

var lockAPIFuncs = map[string]bool{
	"lockShards": true, "lockAllShards": true,
	"unlockShards": true, "unlockAllShards": true,
}

// lockKey identifies one lock instance: the field name plus the
// receiver expression as written ("sh", "e.shards[a]", ...). Two
// different receiver spellings are treated as two different locks —
// exactly the approximation that makes `e.shards[a]` vs `e.shards[b]`
// two commitMu instances. mode is "w" for Lock/TryLock, "r" for
// RLock/TryRLock.
type lockKey struct {
	name  string
	owner string
	mode  string
}

// lockShardsKey is the pseudo-instance acquired by lockShards /
// lockAllShards calls: "some set of shard commit locks".
var lockShardsKey = lockKey{name: "commitMu", owner: "(lockShards set)", mode: "w"}

// lockRange tracks how many times one lock instance may/must be held:
// min is the must-held count, max the may-held count (capped — the
// lattice must have finite height for loop fixpoints). try counts how
// much of max came from TryLock acquisitions, whose failure branch the
// path-insensitive analysis cannot see; the exit-leak rule discounts
// them so `if mu.TryLock() { ... mu.Unlock() }` does not flag.
type lockRange struct{ min, max, try int }

const lockMaxCap = 3

type lockState map[lockKey]lockRange

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinLocks(a, b lockState) lockState {
	out := make(lockState, len(a)+len(b))
	for k, av := range a {
		bv := b[k] // zero if absent
		out[k] = lockRange{min: minInt(av.min, bv.min), max: maxInt(av.max, bv.max), try: maxInt(av.try, bv.try)}
	}
	for k, bv := range b {
		if _, seen := a[k]; !seen {
			out[k] = lockRange{min: 0, max: bv.max, try: bv.try}
		}
	}
	return out
}

func eqLocks(a, b lockState) bool {
	if len(a) != len(b) {
		// Keys are never removed once seen (ranges go to {0,0}), so a
		// length difference means a genuinely new key.
		norm := func(s lockState) int {
			n := 0
			for _, v := range s {
				if v.min != 0 || v.max != 0 {
					n++
				}
			}
			return n
		}
		if norm(a) != norm(b) {
			return false
		}
	}
	for k, av := range a {
		if b[k] != av {
			return false
		}
	}
	for k, bv := range b {
		if _, seen := a[k]; !seen && (bv.min != 0 || bv.max != 0) {
			return false
		}
	}
	return true
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// lockCallOf classifies a call as a lock operation on a modeled mutex
// field: <owner>.<lockField>.<op>(). op is one of Lock/TryLock/RLock/
// TryRLock/Unlock/RUnlock.
func lockCallOf(call *ast.CallExpr) (key lockKey, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "TryLock", "RLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	recv, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel || !modeledLocks[recv.Sel.Name] {
		return lockKey{}, "", false
	}
	mode := "w"
	switch sel.Sel.Name {
	case "RLock", "TryRLock", "RUnlock":
		mode = "r"
	}
	key = lockKey{name: recv.Sel.Name, owner: types.ExprString(recv.X), mode: mode}
	return key, sel.Sel.Name, true
}

// lockStep applies one CFG node's lock effects to st. It is shared
// with the seqlock pass (which needs "is a commit lock held here"
// facts). report, when non-nil, is invoked for rule violations — only
// the final walk passes it.
func lockStep(c *Context, fi FuncInfo, st lockState, n ast.Node, report func(pos ast.Node, format string, args ...interface{})) lockState {
	blockedBy := func() (lockKey, bool) {
		for k, v := range st {
			if v.max >= 1 && k.mode == "w" {
				return k, true
			}
		}
		return lockKey{}, false
	}
	// Structural blocking points: channel send/receive and select.
	if report != nil {
		if op := channelOpIn(n); op != nil {
			if k, held := blockedBy(); held {
				report(op, "channel operation while %s.%s may be held blocks all contenders of the lock; release it first", k.owner, k.name)
			}
		}
	}
	nodeCalls(n, func(call *ast.CallExpr) {
		if key, op, ok := lockCallOf(call); ok {
			switch op {
			case "Lock", "TryLock", "RLock", "TryRLock":
				if report != nil && key.mode == "w" {
					if cur := st[key]; cur.max >= 1 {
						if key.name == "commitMu" {
							report(call, "shard commit lock %s.commitMu may already be held here (loop-carried or duplicate acquisition); acquire multi-shard sets through lockShards", key.owner)
						} else {
							report(call, "%s.%s may already be held here; a second Lock self-deadlocks", key.owner, key.name)
						}
					} else if key.name == "commitMu" {
						for other, v := range st {
							if other.name == "commitMu" && other != key && v.max >= 1 {
								report(call, "second shard commit lock taken directly while %s.commitMu is held; multi-shard acquisition must go through lockShards (ascending shard order)", other.owner)
								break
							}
						}
					}
				}
				cur := st[key]
				if op == "TryLock" || op == "TryRLock" {
					// May fail: max (and try) rise, must-count does not.
					st[key] = lockRange{min: cur.min, max: minInt(cur.max+1, lockMaxCap), try: minInt(cur.try+1, lockMaxCap)}
				} else {
					st[key] = lockRange{min: cur.min + 1, max: minInt(cur.max+1, lockMaxCap), try: cur.try}
				}
			case "Unlock", "RUnlock":
				cur := st[key]
				st[key] = lockRange{min: maxInt(cur.min-1, 0), max: maxInt(cur.max-1, 0), try: cur.try}
			}
			return
		}
		// lockShards/unlockShards helper calls (methods or plain).
		if name, ok := calleeName(call); ok && lockAPIFuncs[name] {
			cur := st[lockShardsKey]
			switch name {
			case "lockShards", "lockAllShards":
				if report != nil {
					for other, v := range st {
						if other.name == "commitMu" && other != lockShardsKey && v.max >= 1 {
							report(call, "%s called while %s.commitMu is already held; the combined acquisition order is no longer ascending", name, other.owner)
							break
						}
					}
					if cur.max >= 1 {
						report(call, "%s called while a lockShards set is already held; release the first set before acquiring another", name)
					}
				}
				st[lockShardsKey] = lockRange{min: cur.min + 1, max: minInt(cur.max+1, lockMaxCap), try: cur.try}
			case "unlockShards", "unlockAllShards":
				st[lockShardsKey] = lockRange{min: maxInt(cur.min-1, 0), max: maxInt(cur.max-1, 0), try: cur.try}
			}
			return
		}
		// A callee that may block, reached under a write lock.
		if report != nil {
			if callee := c.Kit.Callee(fi.Pkg, call); callee != nil && c.Kit.MayBlock(callee) {
				if k, held := blockedBy(); held {
					report(call, "call to %s (may block on channels/Wait/Sleep) while %s.%s is held; release the lock before blocking", callee.Name(), k.owner, k.name)
				}
			} else if callee == nil && c.Kit.directBlockingCall(fi.Pkg, call) {
				if k, held := blockedBy(); held {
					report(call, "blocking call while %s.%s is held; release the lock before blocking", k.owner, k.name)
				}
			}
		}
	})
	return st
}

// channelOpIn finds a channel send or receive inside one CFG node (a
// select marker counts as itself; function literals are skipped — they
// run later).
func channelOpIn(n ast.Node) ast.Node {
	if _, ok := n.(*ast.SelectStmt); ok {
		return n
	}
	var found ast.Node
	ast.Inspect(n, func(x ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found = x
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = x
			}
		}
		return true
	})
	return found
}

// deferredLockReleases collects the lock keys released by deferred
// calls (directly, or inside a deferred func literal).
func deferredLockReleases(g *CFG) map[lockKey]int {
	out := map[lockKey]int{}
	note := func(call *ast.CallExpr) {
		if key, op, ok := lockCallOf(call); ok && (op == "Unlock" || op == "RUnlock") {
			out[key]++
			return
		}
		if name, ok := calleeName(call); ok && (name == "unlockShards" || name == "unlockAllShards") {
			out[lockShardsKey]++
		}
	}
	for _, d := range g.Defers {
		note(d)
		if lit, ok := d.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					note(call)
				}
				return true
			})
		}
	}
	return out
}

func checkLockOrder(c *Context, fi FuncInfo) {
	g := c.Kit.BuildCFG(fi)
	silent := func(st lockState, n ast.Node) lockState {
		return lockStep(c, fi, st, n, nil)
	}
	in := runFlow(g, lockState{}, lockState.clone, joinLocks, eqLocks, silent)

	reported := map[ast.Node]bool{}
	report := func(n ast.Node, format string, args ...interface{}) {
		if !reported[n] { // the final walk may traverse shared states; one report per site
			reported[n] = true
			c.Reportf(n.Pos(), format, args...)
		}
	}
	walkFinal(g, in, lockState.clone, func(st lockState, n ast.Node) lockState {
		return lockStep(c, fi, st, n, report)
	})

	// Locks possibly still held at a return point, net of deferred
	// releases, were not released on every path.
	exit, ok := exitStates(g, in, lockState.clone, joinLocks, silent)
	if !ok {
		return // every path panics
	}
	deferred := deferredLockReleases(g)
	for key, v := range exit {
		if v.max-v.try-deferred[key] >= 1 {
			owner := key.owner
			if key == lockShardsKey {
				owner = "lockShards"
			}
			c.Reportf(fi.Body.Pos(), "%s acquired via %s.%s may still be held at return on some path in %s; release it on every path (or defer the unlock)", key.name, owner, key.name, fi.Name)
		}
	}
}
