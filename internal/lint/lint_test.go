package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var fixtureCases = []struct {
	dir  string
	pass string
}{
	{"flushdiscipline", "flush-discipline"},
	{"txundolog", "tx-undo-log"},
	{"tornstore", "torn-store"},
	{"ctxthreading", "ctx-threading"},
	{"lockorder", "lockorder"},
	{"seqlock", "seqlock"},
	{"lifecycle", "lifecycle"},
	{"wirecode", "wirecode"},
}

func loadModule(t *testing.T) *Module {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	return m
}

// wantLines parses "// want <pass>" markers from a fixture directory:
// each marked line must produce at least one finding of that pass, and
// no unmarked line may produce any.
func wantLines(t *testing.T, dir, pass string) map[int]bool {
	t.Helper()
	re := regexp.MustCompile(`// want (\S+)`)
	out := map[int]bool{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := re.FindStringSubmatch(line); m != nil {
				if m[1] != pass {
					t.Fatalf("%s line %d wants pass %q, fixture is for %q", e.Name(), i+1, m[1], pass)
				}
				out[i+1] = true
			}
		}
	}
	return out
}

func TestFixtures(t *testing.T) {
	m := loadModule(t)
	for _, tc := range fixtureCases {
		t.Run(tc.pass, func(t *testing.T) {
			dir := filepath.Join(m.Root, "internal/lint/testdata/src", tc.dir)
			pkg, err := m.LoadDir(dir, "poseidon/internal/lint/testdata/"+tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			findings, err := Run(m, Options{Enable: []string{tc.pass}}, pkg)
			if err != nil {
				t.Fatal(err)
			}
			// The module itself must be clean, so every finding lands in
			// the fixture.
			got := map[int]bool{}
			for _, f := range findings {
				if filepath.Dir(f.Pos.Filename) != dir {
					t.Errorf("finding outside fixture: %s", f)
					continue
				}
				if f.Pass != tc.pass {
					t.Errorf("finding from unexpected pass: %s", f)
					continue
				}
				got[f.Pos.Line] = true
			}
			want := wantLines(t, dir, tc.pass)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers", tc.dir)
			}
			for line := range want {
				if !got[line] {
					t.Errorf("expected a %s finding at %s line %d, got none", tc.pass, tc.dir, line)
				}
			}
			for line := range got {
				if !want[line] {
					t.Errorf("unexpected %s finding at %s line %d", tc.pass, tc.dir, line)
				}
			}
		})
	}
}

// TestModuleClean is the acceptance gate the CI lint job enforces: the
// tree itself carries zero findings.
func TestModuleClean(t *testing.T) {
	m := loadModule(t)
	findings, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("module not lint-clean: %s", f)
	}
}

func TestPassSelection(t *testing.T) {
	m := loadModule(t)
	if _, err := Run(m, Options{Enable: []string{"no-such-pass"}}); err == nil {
		t.Error("unknown -enable pass not rejected")
	}
	dir := filepath.Join(m.Root, "internal/lint/testdata/src/tornstore")
	pkg, err := m.LoadDir(dir, "poseidon/internal/lint/testdata/tornstore")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture trips torn-store when every pass runs; with only
	// flush-discipline enabled, torn-store must report nothing.
	all, err := Run(m, Options{}, pkg)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, f := range all {
		if f.Pass == "torn-store" {
			torn++
		}
	}
	if torn == 0 {
		t.Fatal("tornstore fixture produced no torn-store finding with all passes on")
	}
	findings, err := Run(m, Options{Enable: []string{"flush-discipline"}}, pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Pass != "flush-discipline" {
			t.Errorf("pass outside Enable reported: %s", f)
		}
	}
}

func TestPassesAreRegistered(t *testing.T) {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	want := []string{
		"ctx-threading", "flush-discipline", "lifecycle", "lockorder",
		"seqlock", "torn-store", "tx-undo-log", "wirecode",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("registered passes = %v, want %v", names, want)
	}
}
