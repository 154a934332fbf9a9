// Package lint is a stdlib-only static analyzer for the poseidon tree.
//
// It loads every package in the module with go/parser, type-checks them
// with go/types, and runs pluggable passes that police disciplines the
// Go compiler cannot see: PMem flush ordering, undo-log coverage,
// torn multi-word stores (paper C4), context threading, lock order,
// seqlock brackets, span/rows lifecycle and wire error codes. Every pass
// is pinned by a seeded mutant in internal/core/lintmutate.go
// (mutation_test.go). cmd/poseidonlint is the CLI front end.
//
// The loader deliberately avoids golang.org/x/tools: module packages are
// parsed and type-checked in dependency order, imports of other module
// packages resolve to the already-checked *types.Package, and any other
// import (stdlib included) resolves to an empty stub package. Stubs make
// the checker report errors for stdlib member references, but those are
// collected and ignored — the module-internal type information the
// passes need (receiver types of Device/Pool/Tx/Span calls) is
// still fully populated, and loading stays fast and hermetic.
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Dir     string // absolute directory
	Path    string // import path ("poseidon/internal/pmem")
	Name    string // package name
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	imports []string // module-internal imports, for topo sort
}

// Module is the loaded module: a shared FileSet plus every package in
// dependency order.
type Module struct {
	Root   string // module root (dir containing go.mod)
	Path   string // module path from go.mod
	Fset   *token.FileSet
	Pkgs   []*Package
	byPath map[string]*Package
	tags   map[string]bool // build tags considered satisfied
}

// Load parses and type-checks every package under root (the directory
// containing go.mod). Test files (_test.go), testdata/ directories, and
// files excluded by a //go:build constraint are skipped, matching what
// `go build ./...` compiles with no extra tags.
func Load(root string) (*Module, error) { return LoadTags(root, nil) }

// LoadTags is Load with a set of build tags considered satisfied —
// files whose //go:build line requires one of them (e.g. the lintmutate
// mutants) are then included, exactly as `go build -tags` would.
func LoadTags(root string, tags map[string]bool) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		tags:   tags,
	}

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		pkg, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
			m.byPath[pkg.Path] = pkg
		}
	}

	ordered, err := m.topoSort()
	if err != nil {
		return nil, err
	}
	m.Pkgs = ordered
	for _, pkg := range m.Pkgs {
		if err := m.check(pkg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LoadDir parses and type-checks one extra directory (e.g. a lint test
// fixture under testdata/) against an already-loaded module. The
// package gets the synthetic import path asPath.
func (m *Module) LoadDir(dir, asPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := m.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg.Path = asPath
	if err := m.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

func (m *Module) parseDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !m.buildOK(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Dir: dir, Path: path, Name: files[0].Name.Name, Files: files}
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if (ip == m.Path || strings.HasPrefix(ip, m.Path+"/")) && !seen[ip] {
				seen[ip] = true
				pkg.imports = append(pkg.imports, ip)
			}
		}
	}
	return pkg, nil
}

// buildOK evaluates a file's //go:build constraint (if any) against the
// module's tag set. Only tags are consulted — GOOS/GOARCH/go-version
// atoms evaluate false, which is right for this tree (no platform-split
// files; tagged files are opt-in test mutants).
func (m *Module) buildOK(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(func(tag string) bool { return m.tags[tag] })
		}
	}
	return true
}

func (m *Module) topoSort() ([]*Package, error) {
	var ordered []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		case 2:
			return nil
		}
		state[p.Path] = 1
		for _, ip := range p.imports {
			if dep := m.byPath[ip]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.Path] = 2
		ordered = append(ordered, p)
		return nil
	}
	for _, p := range m.Pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

func (m *Module) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: &moduleImporter{m: m, stubs: map[string]*types.Package{}},
		Error:    func(error) {}, // stub imports make stdlib members unresolved; ignore
	}
	p, _ := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
	if p == nil {
		return fmt.Errorf("lint: type-checking %s produced no package", pkg.Path)
	}
	pkg.Pkg = p
	pkg.Info = info
	return nil
}

// moduleImporter resolves module-internal imports to already-checked
// packages and everything else to empty stubs ("unsafe" excepted).
type moduleImporter struct {
	m     *Module
	stubs map[string]*types.Package
}

func (i *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := i.m.byPath[path]; p != nil && p.Pkg != nil {
		return p.Pkg, nil
	}
	if s := i.stubs[path]; s != nil {
		return s, nil
	}
	name := path
	if idx := strings.LastIndex(path, "/"); idx >= 0 {
		name = path[idx+1:]
	}
	// go-ism: "gopkg.in/yaml.v2"-style names; not hit for stdlib but harmless.
	if idx := strings.Index(name, "."); idx > 0 {
		name = name[:idx]
	}
	s := types.NewPackage(path, name)
	s.MarkComplete()
	i.stubs[path] = s
	return s, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "module ") {
			return strings.Trim(strings.TrimSpace(strings.TrimPrefix(line, "module")), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}
