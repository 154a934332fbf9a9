package lint

import (
	"go/ast"
	"go/token"
)

// tx-undo-log: inside a pmemobj transaction, a direct device write must
// be preceded (in this function) by undo-log coverage — Tx.Snapshot of
// the range, Tx.NoteWrite for freshly-allocated memory, or Tx.Alloc
// (which notes the new block itself). A write with no prior coverage
// event cannot be rolled back if the transaction aborts or the process
// crashes mid-commit. internal/pmemobj itself is exempt: it implements
// the log.
var passTxUndoLog = &Pass{
	Name: "tx-undo-log",
	Doc:  "device writes inside a pmemobj transaction need prior undo-log coverage (Snapshot/NoteWrite/Alloc)",
	Run: func(c *Context) {
		if c.Pkg.Path == c.Kit.pmobjPath || c.Pkg.Path == c.Kit.pmemPath {
			return
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["tx-undo-log"] || !c.Kit.TxCovered(fi) {
				continue
			}
			checkUndoOrder(c, fi)
		}
	},
}

func checkUndoOrder(c *Context, fi FuncInfo) {
	k := c.Kit
	var stores []*ast.CallExpr
	var covers []token.Pos // positions of undo-coverage events
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false // analyzed as its own FuncInfo
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch k.Classify(fi.Pkg, call) {
		case KStore:
			stores = append(stores, call)
		case KUndo:
			covers = append(covers, call.Pos())
		default:
			// A helper that takes the tx and snapshots inside (e.g.
			// Table.InsertTx) covers what it writes and typically what
			// the caller writes next to it.
			if callee := k.Callee(fi.Pkg, call); callee != nil && k.MayUndo(callee) {
				covers = append(covers, call.Pos())
			}
		}
		return true
	})
	for _, store := range stores {
		covered := false
		for _, p := range covers {
			if p < store.Pos() {
				covered = true
				break
			}
		}
		if !covered {
			_, _, name, _ := k.Method(fi.Pkg, store)
			c.Reportf(store.Pos(), "%s in transactional %s has no preceding undo-log coverage (Tx.Snapshot/NoteWrite/Alloc); the write cannot be rolled back", name, fi.Name)
		}
	}
}
