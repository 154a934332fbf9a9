package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// wirecode: the wire protocol's failure surface must stay stable and
// exhaustive.
//
//  1. Every wire.Error constructed anywhere in the module must carry a
//     Code from the Code* vocabulary (a named constant or a variable
//     holding one) — a missing Code decodes as "" and an inline string
//     literal invents an ad-hoc code no client can match on.
//  2. Every expression switch over the Msg* message tags must either
//     carry a default arm (unknown tag → protocol error) or cover every
//     tag, so adding a message type cannot silently fall through a
//     dispatch path.
var passWireCode = &Pass{
	Name: "wirecode",
	Doc:  "wire.Error needs a stable Code* constant; Msg* tag switches must be exhaustive or have a default",
	Run: func(c *Context) {
		allMsgs := wireMsgTags(c.Kit)
		for _, fi := range c.Kit.Funcs(c.Pkg) {
			if fi.Ignored["wirecode"] {
				continue
			}
			checkWireCode(c, fi, allMsgs)
		}
	},
}

// wireMsgTags enumerates the Msg* constants declared by internal/wire.
func wireMsgTags(k *Kit) map[string]bool {
	out := map[string]bool{}
	for _, pkg := range k.m.Pkgs {
		if pkg.Path != k.wirePath {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			if _, isConst := scope.Lookup(name).(*types.Const); isConst && strings.HasPrefix(name, "Msg") {
				out[name] = true
			}
		}
	}
	return out
}

// wireMsgConst resolves an expression to a wire Msg* constant name.
func wireMsgConst(k *Kit, pkg *Package, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	obj := pkg.Info.Uses[id]
	cst, ok := obj.(*types.Const)
	if !ok || cst.Pkg() == nil || cst.Pkg().Path() != k.wirePath || !strings.HasPrefix(cst.Name(), "Msg") {
		return "", false
	}
	return cst.Name(), true
}

// isWireError reports whether a composite literal builds a wire.Error
// (directly or via &wire.Error{...}).
func isWireError(k *Kit, pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == k.wirePath && n.Obj().Name() == "Error"
}

func checkWireCode(c *Context, fi FuncInfo, allMsgs map[string]bool) {
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isWireError(c.Kit, fi.Pkg, n) {
				return true
			}
			if c.Pkg.Path == c.Kit.wirePath {
				// The codec itself builds empty Error{} shells and fills
				// Code from decoded bytes; the vocabulary rule is for
				// producers, not the decoder.
				return true
			}
			var code ast.Expr
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Code" {
					code = kv.Value
				}
			}
			switch v := code.(type) {
			case nil:
				c.Reportf(n.Pos(), "wire.Error constructed without a Code; clients cannot classify it — set one of the wire.Code* constants")
			case *ast.BasicLit:
				if v.Kind == token.STRING {
					c.Reportf(v.Pos(), "wire.Error Code is an inline string literal; use a wire.Code* constant so the code stays stable across releases")
				}
			}
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			covered := map[string]bool{}
			hasDefault := false
			tagged := false
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
				}
				for _, e := range cc.List {
					if name, ok := wireMsgConst(c.Kit, fi.Pkg, e); ok {
						tagged = true
						covered[name] = true
					}
				}
			}
			if !tagged || hasDefault || len(allMsgs) == 0 {
				return true
			}
			if len(covered) < len(allMsgs) {
				var missing []string
				for name := range allMsgs {
					if !covered[name] {
						missing = append(missing, name)
					}
				}
				c.Reportf(n.Pos(), "switch on wire message tags covers %d of %d Msg* tags and has no default arm; unhandled tags (e.g. %s) fall through silently — add a default (unknown tag → CodeProtocol) or cover every tag", len(covered), len(allMsgs), firstSorted(missing))
			}
		}
		return true
	})
}

func firstSorted(names []string) string {
	best := names[0]
	for _, n := range names[1:] {
		if n < best {
			best = n
		}
	}
	return best
}
