package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallKind classifies a call expression against the PMem primitive
// vocabulary the passes care about.
type CallKind int

const (
	KOther CallKind = iota
	KStore          // Device.WriteU64/WriteU32/WriteWords/WriteBytes/Zero, Pool.WritePPtr
	KFlush          // Device.Flush/Persist, Pool.SetRoot, Pool.RunTx, Tx.Commit
	KCAS            // Device.CompareAndSwapU64 (8-byte failure-atomic by design)
	KUndo           // Tx.Snapshot/NoteWrite/Alloc/Free — undo-log coverage events
)

// deviceStores maps pmem.Device store methods to whether a single call
// can span more than one 8-byte word (and therefore tear on crash).
var deviceStores = map[string]bool{
	"WriteU64":   false,
	"WriteU32":   false, // sub-word read-modify-write of one aligned word
	"WriteWords": true,
	"WriteBytes": true,
	"Zero":       true,
}

var deviceFlushes = map[string]bool{"Flush": true, "Persist": true}

var undoEvents = map[string]bool{"Snapshot": true, "NoteWrite": true, "Alloc": true, "Free": true}

// funcFacts are interprocedural summaries, computed to fixpoint over
// the whole module: does calling this function possibly flush, store,
// write an undo-log entry, or block (channel operation, select,
// WaitGroup.Wait, time.Sleep — directly or via a callee)?
type funcFacts struct {
	mayFlush  bool
	mayStore  bool
	mayUndo   bool
	mayBlock  bool
	mayCreate bool // constructs a lifecycle-tracked resource (Span/Rows/Session/Conn)
	callees   []*types.Func
}

// Kit holds per-run shared state: directive indexes and function
// summaries.
type Kit struct {
	m         *Module
	pmemPath  string
	pmobjPath string
	tracePath string
	wirePath  string
	facts     map[*types.Func]*funcFacts
	lineIgn   map[string]map[int]map[string]bool
}

func newKit(m *Module) *Kit {
	k := &Kit{
		m:         m,
		pmemPath:  m.Path + "/internal/pmem",
		pmobjPath: m.Path + "/internal/pmemobj",
		tracePath: m.Path + "/internal/trace",
		wirePath:  m.Path + "/internal/wire",
		facts:     map[*types.Func]*funcFacts{},
		lineIgn:   map[string]map[int]map[string]bool{},
	}
	for _, pkg := range m.Pkgs {
		k.addPackage(pkg)
	}
	return k
}

// addPackage indexes directives and seeds function summaries for pkg
// (module packages at construction; fixture packages via Run's extra).
func (k *Kit) addPackage(pkg *Package) {
	for file, lines := range lineDirectives(k.m, pkg) {
		if k.lineIgn[file] == nil {
			k.lineIgn[file] = lines
			continue
		}
		for line, passes := range lines {
			if k.lineIgn[file][line] == nil {
				k.lineIgn[file][line] = passes
				continue
			}
			for p := range passes {
				k.lineIgn[file][line][p] = true
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			k.facts[obj] = k.directFacts(pkg, fd.Body)
		}
	}
	k.solve()
}

func (k *Kit) directFacts(pkg *Package, body *ast.BlockStmt) *funcFacts {
	ff := &funcFacts{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			ff.mayBlock = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ff.mayBlock = true
			}
		case *ast.CompositeLit:
			if k.isResourceLit(pkg, n) {
				ff.mayCreate = true
			}
		case *ast.CallExpr:
			switch k.Classify(pkg, n) {
			case KStore:
				ff.mayStore = true
			case KFlush:
				ff.mayFlush = true
			case KUndo:
				ff.mayUndo = true
			}
			if k.directBlockingCall(pkg, n) {
				ff.mayBlock = true
			}
			if callee := k.Callee(pkg, n); callee != nil {
				ff.callees = append(ff.callees, callee)
			}
		}
		return true
	})
	return ff
}

// calleeName extracts the bare called-function name syntactically —
// for helper sets matched by name (the lockShards protocol functions),
// which must work inside fixtures and across receiver shapes alike.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// isResourceLit reports whether a composite literal constructs one of
// the lifecycle-tracked resource types. Functions containing one (or
// transitively calling one that does) are "creators": only their call
// sites bind a fresh resource, which separates real constructors from
// accessors like trace.FromContext that merely hand back an existing
// handle.
func (k *Kit) isResourceLit(pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path, name := n.Obj().Pkg().Path(), n.Obj().Name()
	switch {
	case path == k.tracePath && name == "Span":
		return true
	case path == k.m.Path && (name == "Rows" || name == "Session"):
		return true
	case path == k.m.Path+"/client" && name == "Conn":
		return true
	}
	return false
}

// directBlockingCall reports whether call is itself a known blocking
// primitive: sync.WaitGroup.Wait / sync.Cond.Wait (any method named
// Wait, conservatively) or time.Sleep. Channel operations are detected
// structurally in directFacts and by the lockorder pass.
func (k *Kit) directBlockingCall(pkg *Package, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
		return true
	}
	if path, name, ok := k.PkgCall(pkg, call); ok && path == "time" && name == "Sleep" {
		return true
	}
	return false
}

func (k *Kit) solve() {
	for changed := true; changed; {
		changed = false
		for _, ff := range k.facts {
			for _, callee := range ff.callees {
				cf := k.facts[callee]
				if cf == nil {
					continue
				}
				if cf.mayFlush && !ff.mayFlush {
					ff.mayFlush = true
					changed = true
				}
				if cf.mayStore && !ff.mayStore {
					ff.mayStore = true
					changed = true
				}
				if cf.mayUndo && !ff.mayUndo {
					ff.mayUndo = true
					changed = true
				}
				if cf.mayBlock && !ff.mayBlock {
					ff.mayBlock = true
					changed = true
				}
				if cf.mayCreate && !ff.mayCreate {
					ff.mayCreate = true
					changed = true
				}
			}
		}
	}
}

// MayFlush/MayStore/MayUndo/MayBlock report the summary for a resolved
// callee.
func (k *Kit) MayFlush(fn *types.Func) bool { f := k.facts[fn]; return f != nil && f.mayFlush }
func (k *Kit) MayStore(fn *types.Func) bool { f := k.facts[fn]; return f != nil && f.mayStore }
func (k *Kit) MayUndo(fn *types.Func) bool  { f := k.facts[fn]; return f != nil && f.mayUndo }
func (k *Kit) MayBlock(fn *types.Func) bool { f := k.facts[fn]; return f != nil && f.mayBlock }

// MayCreate reports whether fn (transitively) constructs a
// lifecycle-tracked resource.
func (k *Kit) MayCreate(fn *types.Func) bool { f := k.facts[fn]; return f != nil && f.mayCreate }

func (k *Kit) ignored(pass string, p token.Position) bool {
	lines := k.lineIgn[p.Filename]
	return lines != nil && lines[p.Line] != nil && lines[p.Line][pass]
}

// PkgCall resolves a package-qualified call (pkg.Func(...)) to the
// imported package path and function name. Unlike Callee, this works
// for stub-imported packages (stdlib) too: the package name identifier
// resolves to a *types.PkgName even when the member does not.
func (k *Kit) PkgCall(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	x, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[x].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isPanicLike treats panic(), os.Exit, and testing/log Fatal* calls as
// path terminators so error paths do not produce noise. Shared by the
// flush-discipline walker and the CFG builder.
func isPanicLike(pkg *Package, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if b, ok := pkg.Info.Uses[fun].(*types.Builtin); ok && b != nil {
				return true
			}
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Fatalln", "Exit", "Panic", "Panicf":
			return true
		}
	}
	return false
}

// Callee resolves a call to a declared module function (or method), or
// nil for builtins, stdlib stubs, and dynamic calls through values.
func (k *Kit) Callee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// Method resolves a call to (package path, receiver type name, method
// name). For package-level functions the type name is "".
func (k *Kit) Method(pkg *Package, call *ast.CallExpr) (path, typ, name string, ok bool) {
	fn := k.Callee(pkg, call)
	if fn == nil {
		return "", "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", "", "", false
	}
	path, name = fn.Pkg().Path(), fn.Name()
	if recv := sig.Recv(); recv != nil {
		typ = namedName(recv.Type())
		if typ == "" {
			return "", "", "", false
		}
	}
	return path, typ, name, true
}

// Classify maps a call to its PMem call kind (KOther when unrelated).
func (k *Kit) Classify(pkg *Package, call *ast.CallExpr) CallKind {
	path, typ, name, ok := k.Method(pkg, call)
	if !ok {
		return KOther
	}
	switch {
	case path == k.pmemPath && typ == "Device":
		if _, isStore := deviceStores[name]; isStore {
			return KStore
		}
		switch {
		case deviceFlushes[name]:
			return KFlush
		case name == "CompareAndSwapU64":
			return KCAS
		}
	case path == k.pmobjPath && typ == "Pool":
		switch name {
		case "WritePPtr":
			return KStore
		case "SetRoot", "RunTx":
			return KFlush
		}
	case path == k.pmobjPath && typ == "Tx":
		switch {
		case undoEvents[name]:
			return KUndo
		case name == "Commit":
			return KFlush
		}
	}
	return KOther
}

// MultiWord reports whether a KStore call can span multiple 8-byte
// words in one logical store (tearable on crash, paper C4).
func (k *Kit) MultiWord(pkg *Package, call *ast.CallExpr) bool {
	path, typ, name, ok := k.Method(pkg, call)
	if !ok {
		return false
	}
	if path == k.pmemPath && typ == "Device" {
		return deviceStores[name]
	}
	return path == k.pmobjPath && typ == "Pool" && name == "WritePPtr"
}

func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// FuncInfo is one function-like body a pass analyzes: a declared
// function/method or a function literal.
type FuncInfo struct {
	Pkg      *Package
	Decl     *ast.FuncDecl // nil for literals
	Lit      *ast.FuncLit  // nil for declarations
	Body     *ast.BlockStmt
	Encl     *ast.BlockStmt // for literals: the enclosing declaration's body
	Obj      *types.Func    // nil for literals
	Deferred bool           // //pmem:deferred-flush on this func (or its enclosing decl)
	Ignored  map[string]bool
	Name     string
}

// Funcs returns every function-like body in pkg: each top-level
// FuncDecl, plus each FuncLit nested anywhere (literals inherit the
// enclosing declaration's directives, so annotating a function covers
// its closures).
func (k *Kit) Funcs(pkg *Package) []FuncInfo {
	var out []FuncInfo
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			deferred, ignored := funcDirectives(fd.Doc)
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			out = append(out, FuncInfo{
				Pkg: pkg, Decl: fd, Body: fd.Body, Obj: obj,
				Deferred: deferred, Ignored: ignored, Name: fd.Name.Name,
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, FuncInfo{
						Pkg: pkg, Lit: lit, Body: lit.Body, Encl: fd.Body,
						Deferred: deferred, Ignored: ignored,
						Name: fd.Name.Name + " (func literal)",
					})
				}
				return true
			})
		}
	}
	return out
}

// DRAMLocals returns the objects in fi (and, for literals, the
// enclosing declaration) that are bound to pmem.NewDRAM(...) results.
// Stores through a known-volatile device need no flush and cannot tear
// in a crash-visible way, so the flush/torn passes skip them.
func (k *Kit) DRAMLocals(fi FuncInfo) map[types.Object]bool {
	out := map[types.Object]bool{}
	isNewDRAM := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := k.Callee(fi.Pkg, call)
		return fn != nil && fn.Pkg().Path() == k.pmemPath && fn.Name() == "NewDRAM"
	}
	scan := func(body *ast.BlockStmt) {
		if body == nil {
			return
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isNewDRAM(rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							if obj := fi.Pkg.Info.Defs[id]; obj != nil {
								out[obj] = true
							} else if obj := fi.Pkg.Info.Uses[id]; obj != nil {
								out[obj] = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range n.Values {
					if i < len(n.Names) && isNewDRAM(rhs) {
						if obj := fi.Pkg.Info.Defs[n.Names[i]]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	scan(fi.Encl)
	scan(fi.Body)
	return out
}

// StoreToDRAM reports whether a store call's receiver is a local
// variable known to hold a DRAM device.
func (k *Kit) StoreToDRAM(fi FuncInfo, dram map[types.Object]bool, call *ast.CallExpr) bool {
	if len(dram) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj := fi.Pkg.Info.Uses[id]
	return obj != nil && dram[obj]
}

// forEachCall visits every call in fi's body in source order, without
// descending into nested function literals (each literal is analyzed
// as its own FuncInfo).
func forEachCall(fi FuncInfo, f func(*ast.CallExpr)) {
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}

// TxCovered reports whether fi runs under a pmemobj transaction: it
// has a *pmemobj.Tx receiver/parameter, or its body invokes Tx methods
// (covers types that hold the Tx in a field, like the bulk loader).
func (k *Kit) TxCovered(fi FuncInfo) bool {
	isTx := func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		return ok && n.Obj().Name() == "Tx" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == k.pmobjPath
	}
	if fi.Obj != nil {
		if sig, ok := fi.Obj.Type().(*types.Signature); ok {
			if r := sig.Recv(); r != nil && isTx(r.Type()) {
				return true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if isTx(sig.Params().At(i).Type()) {
					return true
				}
			}
		}
	}
	if fi.Lit != nil {
		if tv, ok := fi.Pkg.Info.Types[fi.Lit]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					if isTx(sig.Params().At(i).Type()) {
						return true
					}
				}
			}
		}
	}
	covered := false
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if covered {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false // literals are analyzed as their own FuncInfo
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if path, typ, _, ok := k.Method(fi.Pkg, call); ok && path == k.pmobjPath && typ == "Tx" {
				covered = true
			}
		}
		return true
	})
	return covered
}
