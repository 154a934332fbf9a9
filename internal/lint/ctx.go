package lint

import (
	"go/ast"
)

// ctx-threading: library code (everything outside package main and
// _test.go files) must thread the caller's context — constructing
// context.Background()/TODO() severs cancellation from the session
// above. (Every entry point that runs a plan takes a context, so the
// compiler enforces the rest.)
var passCtxThreading = &Pass{
	Name: "ctx-threading",
	Doc:  "library code must not construct context.Background()/TODO()",
	Run: func(c *Context) {
		if c.Pkg.Name == "main" {
			return
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["ctx-threading"] {
				continue
			}
			fi := fi
			forEachCall(fi, func(call *ast.CallExpr) {
				// Matched via the file's import of "context", so stub
				// imports work too.
				path, name, ok := c.Kit.PkgCall(fi.Pkg, call)
				if ok && path == "context" && (name == "Background" || name == "TODO") {
					c.Reportf(call.Pos(), "context.%s() in library code severs cancellation; thread the caller's ctx", name)
				}
			})
		}
	},
}
