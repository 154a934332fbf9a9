package lint

import (
	"go/ast"
	"go/types"
)

// telemetry handle types whose nil value is the "telemetry disabled"
// path. They must only ever travel as pointers and be used through
// their nil-safe methods.
var telemetryHandles = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
}

// trace handle types follow the same contract: a nil *trace.Tracer or
// *trace.Span is the "tracing disabled" path, and every method no-ops
// on nil.
var traceHandles = map[string]bool{
	"Tracer": true, "Span": true,
}

// telemetry-nil-safety: internal/telemetry and internal/trace handles
// are nil when the subsystem is disabled, and every method is nil-safe.
// Dereferencing a handle or holding one by value defeats that (panics
// on the disabled path, copies the atomics/mutex) — flag both outside
// the owning packages themselves.
var passTelemetryNilSafety = &Pass{
	Name:    "telemetry-nil-safety",
	Doc:     "telemetry and trace handles must stay pointers and be used via their nil-safe methods",
	Default: true,
	Run: func(c *Context) {
		if c.Pkg.Path == c.Kit.telePath || c.Pkg.Path == c.Kit.tracePath {
			return
		}
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["telemetry-nil-safety"] {
				continue
			}
			checkTelemetryUse(c, fi)
		}
		checkTelemetryDecls(c)
	},
}

// nilSafeHandle reports whether t is one of the nil-when-disabled
// handle types, returning its package-qualified name.
func (k *Kit) nilSafeHandle(t types.Type) (string, bool) {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	switch n.Obj().Pkg().Path() {
	case k.telePath:
		if telemetryHandles[n.Obj().Name()] {
			return "telemetry." + n.Obj().Name(), true
		}
	case k.tracePath:
		if traceHandles[n.Obj().Name()] {
			return "trace." + n.Obj().Name(), true
		}
	}
	return "", false
}

func checkTelemetryUse(c *Context, fi FuncInfo) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false
		}
		switch n := n.(type) {
		case *ast.StarExpr:
			// `*h` on a handle pointer — a value deref. Type positions
			// (`*telemetry.Counter` in declarations) resolve to the
			// pointer type and are not flagged here.
			tv, ok := info.Types[n.X]
			if !ok || !tv.IsValue() {
				return true
			}
			if ptr, ok := tv.Type.(*types.Pointer); ok {
				if name, hit := c.Kit.nilSafeHandle(ptr.Elem()); hit {
					c.Reportf(n.Pos(), "dereferencing *%s panics when the subsystem is disabled (nil handle) and copies its internals; call the nil-safe methods instead", name)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if name, hit := c.Kit.nilSafeHandle(tv.Type); hit {
					c.Reportf(n.Pos(), "%s composite literal bypasses its constructor and creates a by-value handle; use the package constructors", name)
				}
			}
		}
		return true
	})
}

// checkTelemetryDecls flags by-value handle types in declarations:
// struct fields, vars, params, and results typed telemetry.X or
// trace.X instead of the pointer form.
func checkTelemetryDecls(c *Context) {
	report := func(typeExpr ast.Expr) {
		if typeExpr == nil {
			return
		}
		// A pointer type (`*telemetry.Counter`) is the correct shape;
		// only a bare named handle type is a by-value copy.
		if _, isPtr := typeExpr.(*ast.StarExpr); isPtr {
			return
		}
		tv, ok := c.Pkg.Info.Types[typeExpr]
		if !ok {
			return
		}
		if name, hit := c.Kit.nilSafeHandle(tv.Type); hit {
			c.Reportf(typeExpr.Pos(), "%s held by value breaks the nil-when-disabled pattern and copies its internals; declare it *%s", name, name)
		}
	}
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				report(n.Type)
			case *ast.ValueSpec:
				report(n.Type)
			}
			return true
		})
	}
}
