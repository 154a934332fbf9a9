package lint

import "go/ast"

// torn-store: persistent stores wider than 8 bytes are not
// failure-atomic (paper characteristic C4 — only aligned 8-byte stores
// reach PMem atomically). A multi-word write (WriteWords, WriteBytes,
// Pool.WritePPtr) is only crash-safe when the range is covered by the
// undo log (a transaction), driven by the MWCAS helper, or made
// unreachable until a single 8-byte commit word flips — so any such
// call outside a transaction is flagged unless annotated with the
// ordering argument that makes it safe. internal/pmem and
// internal/pmemobj are exempt: they implement the atomicity protocols.
var passTornStore = &Pass{
	Name: "torn-store",
	Doc:  "multi-word persistent stores outside a transaction/MWCAS can tear on crash (C4)",
	Run: func(c *Context) {
		if c.Pkg.Path == c.Kit.pmobjPath || c.Pkg.Path == c.Kit.pmemPath {
			return
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["torn-store"] || c.Kit.TxCovered(fi) {
				continue
			}
			fi := fi
			dram := c.Kit.DRAMLocals(fi)
			forEachCall(fi, func(call *ast.CallExpr) {
				if c.Kit.MultiWord(fi.Pkg, call) && !c.Kit.StoreToDRAM(fi, dram, call) {
					_, _, name, _ := c.Kit.Method(fi.Pkg, call)
					c.Reportf(call.Pos(), "multi-word %s in %s is not failure-atomic (C4) and runs outside any transaction; cover it with the undo log, MWCAS, or annotate //poseidonlint:ignore torn-store <why the ordering is safe>", name, fi.Name)
				}
			})
		}
	},
}
