package jit

import (
	"strings"
	"testing"

	"poseidon/internal/storage"
)

func iv(v int64) storage.Value { return storage.IntValue(v) }

// fnOf builds a function from blocks for pass tests.
func fnOf(numVals int, blocks ...*Block) *Fn {
	return &Fn{Name: "t", Blocks: blocks, NumVals: numVals, NumSlots: 4}
}

func TestSimplifyCFGThreadsAndMerges(t *testing.T) {
	// b0 -> b1(empty) -> b2; b2 single-pred merge candidate.
	f := fnOf(2,
		&Block{Name: "b0", Instrs: []Instr{{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(1)}}, Kind: TermJump, To: 1},
		&Block{Name: "b1", Kind: TermJump, To: 2},
		&Block{Name: "b2", Instrs: []Instr{{Op: OpEmit, Dst: 1, A: NoReg, B: NoReg, Cols: nil}}, Kind: TermRet},
	)
	n := Optimize(f)
	if n == 0 {
		t.Fatal("simplifycfg reported no changes")
	}
	if len(f.Blocks) != 1 {
		t.Errorf("blocks after simplify = %d, want 1 (all merged)", len(f.Blocks))
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSimplifyCFGRemovesUnreachable(t *testing.T) {
	f := fnOf(2,
		&Block{Name: "b0", Kind: TermRet},
		&Block{Name: "dead", Instrs: []Instr{{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(1)}}, Kind: TermRet},
	)
	Optimize(f)
	if len(f.Blocks) != 1 {
		t.Errorf("unreachable block survived: %d blocks", len(f.Blocks))
	}
}

func TestOptimizeShrinksGeneratedCode(t *testing.T) {
	plan := plansUnderTest()["two-hop"]
	fn, err := Compile(plan.Split())
	if err != nil {
		t.Fatal(err)
	}
	blocksBefore := len(fn.Blocks)
	changed := Optimize(fn)
	if err := fn.Verify(); err != nil {
		t.Fatalf("optimized function invalid: %v\n%s", err, fn)
	}
	if len(fn.Blocks) >= blocksBefore {
		t.Errorf("simplifycfg did not reduce blocks: %d -> %d", blocksBefore, len(fn.Blocks))
	}
	if changed == 0 {
		t.Error("Optimize reported no changes on a real pipeline")
	}
}

func TestIRStringAndVerify(t *testing.T) {
	plan := plansUnderTest()["filter-project"]
	fn, err := Compile(plan.Split())
	if err != nil {
		t.Fatal(err)
	}
	text := fn.String()
	for _, want := range []string{"loadchunk", "iter.chunk", "node.prop", "emit", "br ", "jump "} {
		if !strings.Contains(text, want) {
			t.Errorf("IR dump missing %q:\n%s", want, text)
		}
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a terminator: Verify must catch it.
	fn.Blocks[0].Kind = TermJump
	fn.Blocks[0].To = 999
	if err := fn.Verify(); err == nil {
		t.Error("Verify accepted an out-of-range jump")
	}
}
