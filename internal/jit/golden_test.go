package jit

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"poseidon/internal/ldbc"
	"poseidon/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ir.golden from the current compiler")

const goldenPath = "testdata/ir.golden"

// namedPlans returns the plans the repo compiles by name, keyed and in
// key order: every LDBC short read indexed and by label scan, every LDBC
// update, and plansUnderTest.
func namedPlans(t *testing.T) ([]string, map[string]*query.Plan) {
	plans := map[string]*query.Plan{}
	for _, q := range ldbc.SRQueries() {
		for _, idx := range []bool{true, false} {
			p, err := ldbc.SRPlan(q, idx)
			if err != nil {
				t.Fatal(err)
			}
			plans[fmt.Sprintf("ldbc/sr%s/index=%v", q.Name(), idx)] = p
		}
	}
	for _, q := range ldbc.IUQueries() {
		p, err := ldbc.IUPlan(q, true)
		if err != nil {
			t.Fatal(err)
		}
		plans["ldbc/iu"+q.Name()] = p
	}
	for name, p := range plansUnderTest() {
		plans["unit/"+name] = p
	}
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, plans
}

// optimizedIR compiles and optimises a plan's pipeline and renders the
// IR, or the compile error.
func optimizedIR(p *query.Plan) string {
	fn, err := Compile(p.Split())
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	Optimize(fn)
	return fn.String()
}

// TestIRGolden pins what the compiler emits: the optimised IR of every
// named plan as text, and one SHA-256 over that of 5,000 random plans
// (seed 1). A change to codegen or the passes that rewrites any of them
// fails here; rerun with -update only when new IR is the point of the
// change.
func TestIRGolden(t *testing.T) {
	var b strings.Builder
	names, plans := namedPlans(t)
	for _, n := range names {
		fmt.Fprintf(&b, "== %s\n%s", n, optimizedIR(plans[n]))
	}
	h := sha256.New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		io.WriteString(h, optimizedIR(randomPlan(rng, false)))
	}
	fmt.Fprintf(&b, "== randomPlan x5000 seed 1\nsha256 %x\n", h.Sum(nil))
	got := b.String()

	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got %q\nwant %q", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}
