package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// seededMutants maps each function of internal/core/lintmutate.go to the
// pass contracted to report it. Every registered pass owns at least one.
var seededMutants = map[string]string{
	"mutantUnflushedEts":          "flush-discipline",
	"mutantWriteBeforeSnapshot":   "tx-undo-log",
	"mutantTornHeader":            "torn-store",
	"mutantFreshContext":          "ctx-threading",
	"mutantDescendingLocks":       "lockorder",
	"mutantUnbracketedRead":       "seqlock",
	"mutantChainReadBelowBracket": "seqlock",
	"mutantLeakedSpan":            "lifecycle",
	"mutantUncodedWireError":      "wirecode",
}

// TestMutationCaught is the analyzer's own regression harness: the
// module is re-loaded with the lintmutate build tag, which pulls in
// internal/core/lintmutate.go — one or more seeded bugs per pass. With
// every pass on, each mutant must be reported by its pass, inside its
// own function, and the rest of the tree must stay clean (the tag adds
// bugs, it must not add noise). A pass with no mutant fails the test: a
// pass that cannot be shown to catch a real bug has not earned its lines.
func TestMutationCaught(t *testing.T) {
	owned := map[string]bool{}
	for _, pass := range seededMutants {
		owned[pass] = true
	}
	for _, p := range Passes() {
		if !owned[p.Name] {
			t.Errorf("pass %s has no seeded mutant in seededMutants", p.Name)
		}
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadTags(root, map[string]bool{"lintmutate": true})
	if err != nil {
		t.Fatalf("LoadTags(lintmutate): %v", err)
	}
	findings, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const mutFile = "internal/core/lintmutate.go"
	// Line ranges of the mutant functions, so that a finding is credited
	// to the mutant it sits in: two mutants share the seqlock pass.
	pfset := token.NewFileSet()
	parsed, err := parser.ParseFile(pfset, filepath.Join(root, mutFile), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutantAt := func(line int) string {
		for _, d := range parsed.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && pfset.Position(fd.Pos()).Line <= line && line <= pfset.Position(fd.End()).Line {
				return fd.Name.Name
			}
		}
		return ""
	}
	caught := map[string]bool{}
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil || filepath.ToSlash(rel) != mutFile {
			t.Errorf("finding outside the mutant file: %s", f)
			continue
		}
		name := mutantAt(f.Pos.Line)
		if seededMutants[name] != f.Pass {
			t.Errorf("finding not owed by a seeded mutant: %s (in %q)", f, name)
			continue
		}
		caught[name] = true
	}
	for name, pass := range seededMutants {
		if !caught[name] {
			t.Errorf("seeded %s mutant %s in %s went unreported", pass, name, mutFile)
		}
	}
	// The untagged load must not see the mutants at all.
	plain, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range plain.Pkgs {
		for _, f := range pkg.Files {
			if name := plain.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "lintmutate.go") {
				t.Errorf("untagged load included %s", name)
			}
		}
	}
}
