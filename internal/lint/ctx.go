package lint

import (
	"go/ast"
)

// legacyEntryPoints are the pre-session API surfaces kept as shims
// (see CHANGES.md "Migration: old entry points → session/statement
// API"). Library code must call the *Ctx variants so cancellation
// reaches the core transaction; only cmd/, examples (package main),
// and tests may use the legacy names.
var legacyEntryPoints = map[string]map[string]string{
	"poseidon.DB": {
		"Query": "QueryCtx", "QueryMode": "QueryModeCtx", "QueryTx": "QueryTxCtx",
		"Exec": "ExecCtx", "Cypher": "CypherCtx", "CypherMode": "CypherModeCtx",
	},
	"query.Prepared": {"Run": "RunCtx", "RunParallel": "RunParallelCtx"},
	"jit.Engine":     {"Run": "RunCtx", "RunAdaptive": "RunAdaptiveCtx", "Compile": "CompileCtx"},
}

// ctx-threading: library code (everything outside package main and
// _test.go files) must thread the caller's context — calling the legacy
// non-Ctx entry points or constructing context.Background()/TODO()
// severs cancellation from the session above. The legacy shims
// themselves carry //poseidonlint:ignore ctx-threading annotations.
var passCtxThreading = &Pass{
	Name:    "ctx-threading",
	Doc:     "library code must not call legacy non-Ctx entry points or construct context.Background()/TODO()",
	Default: true,
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
				if name, ok := backgroundCtx(c.Kit, fi.Pkg, call); ok {
					c.Reportf(call.Pos(), "context.%s() in library code severs cancellation; thread the caller's ctx (legacy shims: annotate //poseidonlint:ignore ctx-threading)", name)
					return
				}
				path, typ, name, ok := c.Kit.Method(fi.Pkg, call)
				if !ok || typ == "" {
					return
				}
				short := shortPath(c.Kit.m.Path, path) + "." + typ
				if repl, hit := legacyEntryPoints[short][name]; hit {
					c.Reportf(call.Pos(), "legacy %s.%s call in library code; use %s and thread the caller's context", typ, name, repl)
				}
			})
		}
	},
}

// backgroundCtx matches context.Background()/context.TODO() via the
// file's import of the "context" package (works with stub imports).
func backgroundCtx(k *Kit, pkg *Package, call *ast.CallExpr) (string, bool) {
	path, name, ok := k.PkgCall(pkg, call)
	if !ok || path != "context" || (name != "Background" && name != "TODO") {
		return "", false
	}
	return name, true
}

// shortPath maps "poseidon" -> "poseidon" and
// "poseidon/internal/query" -> "query" for the legacy table keys.
func shortPath(modPath, pkgPath string) string {
	if pkgPath == modPath {
		return "poseidon"
	}
	for i := len(pkgPath) - 1; i >= 0; i-- {
		if pkgPath[i] == '/' {
			return pkgPath[i+1:]
		}
	}
	return pkgPath
}
