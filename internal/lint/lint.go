package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// A Finding is one analyzer diagnostic, formatted as
// "file:line:col: [pass] message".
type Finding struct {
	Pos  token.Position
	Pass string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Pass, f.Msg)
}

// A Pass inspects one package at a time and reports findings through
// the Reporter. Passes must tolerate partially-broken type info (stdlib
// imports are stubs — see the package comment in load.go).
type Pass struct {
	Name string
	Doc  string
	Run  func(c *Context)
}

// Context is what a pass sees for one package.
type Context struct {
	Module *Module
	Pkg    *Package
	Kit    *Kit // shared type/call classification helpers
	pass   *Pass
	out    *[]Finding
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (c *Context) Reportf(pos token.Pos, format string, args ...interface{}) {
	p := c.Module.Fset.Position(pos)
	if c.Kit.ignored(c.pass.Name, p) {
		return
	}
	*c.out = append(*c.out, Finding{Pos: p, Pass: c.pass.Name, Msg: fmt.Sprintf(format, args...)})
}

// Passes returns every registered pass in a stable order.
func Passes() []*Pass {
	return []*Pass{
		passFlushDiscipline,
		passTxUndoLog,
		passTornStore,
		passCtxThreading,
		passLockOrder,
		passSeqlock,
		passLifecycle,
		passWireCode,
	}
}

// Options select which passes run.
type Options struct {
	Enable []string // if non-empty, only these passes run; otherwise all do
}

func selected(opts Options) ([]*Pass, error) {
	if len(opts.Enable) == 0 {
		return Passes(), nil
	}
	known := map[string]*Pass{}
	for _, p := range Passes() {
		known[p.Name] = p
	}
	for _, n := range opts.Enable {
		if known[n] == nil {
			return nil, fmt.Errorf("lint: unknown pass %q", n)
		}
	}
	var out []*Pass
	for _, p := range Passes() {
		for _, n := range opts.Enable {
			if n == p.Name {
				out = append(out, p)
				break
			}
		}
	}
	return out, nil
}

// PassTiming is the wall-clock cost of one pass across all packages.
type PassTiming struct {
	Pass    string
	Elapsed time.Duration
}

// Run executes the selected passes over every package in the module
// (plus any extra packages, e.g. test fixtures) and returns the
// findings sorted by position.
func Run(m *Module, opts Options, extra ...*Package) ([]Finding, error) {
	findings, _, err := RunTimed(m, opts, extra...)
	return findings, err
}

// RunTimed is Run, also reporting per-pass wall-clock timings (in
// registration order) for the CI lint-budget gate.
func RunTimed(m *Module, opts Options, extra ...*Package) ([]Finding, []PassTiming, error) {
	passes, err := selected(opts)
	if err != nil {
		return nil, nil, err
	}
	kit := newKit(m)
	pkgs := append(append([]*Package{}, m.Pkgs...), extra...)
	for _, p := range extra {
		kit.addPackage(p)
	}
	var findings []Finding
	var timings []PassTiming
	for _, pass := range passes {
		start := time.Now()
		for _, pkg := range pkgs {
			pass.Run(&Context{Module: m, Pkg: pkg, Kit: kit, pass: pass, out: &findings})
		}
		timings = append(timings, PassTiming{Pass: pass.Name, Elapsed: time.Since(start)})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Pass < findings[j].Pass
	})
	return findings, timings, nil
}

// ---- annotations -------------------------------------------------------

// Two directive forms are honoured:
//
//	//pmem:deferred-flush <reason>
//	    on a function's doc comment: the flush-discipline pass skips the
//	    function — the caller owns flushing, and the reason says why that
//	    is safe. It does not silence torn-store: a deferred flush does not
//	    make a multi-word store failure-atomic, so such a function needs
//	    its own //poseidonlint:ignore torn-store as well.
//
//	//poseidonlint:ignore <pass> [reason]
//	    on a function's doc comment or on/above the offending line:
//	    the named pass skips that function or line.
const (
	dirDeferredFlush = "//pmem:deferred-flush"
	dirIgnore        = "//poseidonlint:ignore"
)

// funcDirectives returns the deferred-flush flag and the set of passes
// ignored for the whole function, read from its doc comment.
func funcDirectives(doc *ast.CommentGroup) (deferred bool, ignored map[string]bool) {
	ignored = map[string]bool{}
	if doc == nil {
		return false, ignored
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if strings.HasPrefix(text, dirDeferredFlush) {
			deferred = true
		}
		if strings.HasPrefix(text, dirIgnore) {
			rest := strings.Fields(strings.TrimPrefix(text, dirIgnore))
			if len(rest) > 0 {
				ignored[rest[0]] = true
			}
		}
	}
	return deferred, ignored
}

// lineDirectives maps file -> line -> set of ignored passes, from
// //poseidonlint:ignore comments anywhere in the package. A directive
// suppresses findings on its own line and on the line below (so it can
// sit on the preceding line).
func lineDirectives(m *Module, pkg *Package) map[string]map[int]map[string]bool {
	out := map[string]map[int]map[string]bool{}
	add := func(file string, line int, pass string) {
		if out[file] == nil {
			out[file] = map[int]map[string]bool{}
		}
		if out[file][line] == nil {
			out[file][line] = map[string]bool{}
		}
		out[file][line][pass] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, dirIgnore) {
					continue
				}
				rest := strings.Fields(strings.TrimPrefix(text, dirIgnore))
				if len(rest) == 0 {
					continue
				}
				p := m.Fset.Position(c.Pos())
				add(p.Filename, p.Line, rest[0])
				add(p.Filename, p.Line+1, rest[0])
			}
		}
	}
	return out
}
