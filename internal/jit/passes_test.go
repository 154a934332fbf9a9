package jit

import (
	"strings"
	"testing"

	"poseidon/internal/storage"
)

func iv(v int64) storage.Value { return storage.IntValue(v) }
func bv(v bool) storage.Value  { return storage.BoolValue(v) }

// fnOf builds a function from blocks for pass tests.
func fnOf(numVals int, blocks ...*Block) *Fn {
	return &Fn{Name: "t", Blocks: blocks, NumVals: numVals, NumSlots: 4}
}

func TestMem2RegForwardsStoreToLoad(t *testing.T) {
	f := fnOf(4, &Block{
		Name: "b",
		Instrs: []Instr{
			{Op: OpAlloca, Dst: 0, A: NoReg, B: NoReg, Val: iv(0)},
			{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(7)},
			{Op: OpStore, Dst: 0, A: 0, B: NoReg},
			{Op: OpLoad, Dst: 1, A: 0, B: NoReg},
			{Op: OpAddI64, Dst: 2, A: 1, B: 1},
			{Op: OpEmit, Dst: 3, A: NoReg, B: NoReg, Cols: []Col{{Kind: ColVal, Reg: 2}}},
		},
		Kind: TermRet,
	})
	n := promoteMemToReg(f)
	if n == 0 {
		t.Fatal("mem2reg reported no changes")
	}
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == OpLoad || in.Op == OpAlloca || in.Op == OpStore {
			t.Errorf("memory op %v survived promotion", in)
		}
		if in.Op == OpAddI64 && (in.A != 0 || in.B != 0) {
			t.Errorf("add operands not forwarded: %v", in)
		}
	}
}

func TestMem2RegKeepsCrossBlockSlots(t *testing.T) {
	// Slot stored in block 0, loaded in block 1: must stay in memory.
	f := fnOf(4,
		&Block{Name: "a", Instrs: []Instr{
			{Op: OpAlloca, Dst: 0, A: NoReg, B: NoReg, Val: iv(0)},
			{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(7)},
			{Op: OpStore, Dst: 0, A: 0, B: NoReg},
		}, Kind: TermJump, To: 1},
		&Block{Name: "b", Instrs: []Instr{
			{Op: OpLoad, Dst: 1, A: 0, B: NoReg},
			{Op: OpEmit, Dst: 2, A: NoReg, B: NoReg, Cols: []Col{{Kind: ColVal, Reg: 1}}},
		}, Kind: TermRet},
	)
	promoteMemToReg(f)
	found := false
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == OpLoad {
				found = true
			}
		}
	}
	if !found {
		t.Error("cross-block load was incorrectly promoted")
	}
}

func TestSimplifyCFGThreadsAndMerges(t *testing.T) {
	// b0 -> b1(empty) -> b2; b2 single-pred merge candidate.
	f := fnOf(2,
		&Block{Name: "b0", Instrs: []Instr{{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(1)}}, Kind: TermJump, To: 1},
		&Block{Name: "b1", Kind: TermJump, To: 2},
		&Block{Name: "b2", Instrs: []Instr{{Op: OpEmit, Dst: 1, A: NoReg, B: NoReg, Cols: nil}}, Kind: TermRet},
	)
	n := simplifyCFG(f)
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
	simplifyCFG(f)
	if len(f.Blocks) != 1 {
		t.Errorf("unreachable block survived: %d blocks", len(f.Blocks))
	}
}

func TestDCERemovesUnusedPureOps(t *testing.T) {
	f := fnOf(4, &Block{
		Name: "b",
		Instrs: []Instr{
			{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(1)},
			{Op: OpConst, Dst: 1, A: NoReg, B: NoReg, Val: iv(2)}, // dead
			{Op: OpEmit, Dst: 2, A: NoReg, B: NoReg, Cols: []Col{{Kind: ColVal, Reg: 0}}},
		},
		Kind: TermRet,
	})
	n := deadCodeElim(f)
	if n != 1 {
		t.Errorf("dce removed %d instrs, want 1", n)
	}
	if len(f.Blocks[0].Instrs) != 2 {
		t.Errorf("instrs after dce = %d, want 2", len(f.Blocks[0].Instrs))
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	f := fnOf(4, &Block{
		Name: "b",
		Instrs: []Instr{
			{Op: OpIterChunkInit, Dst: 0, A: NoReg, B: NoReg},
			{Op: OpIterNext, Dst: 0, A: 0, B: NoReg}, // dst unused but impure
		},
		Kind: TermRet,
	})
	if n := deadCodeElim(f); n != 0 {
		t.Errorf("dce removed %d impure instrs", n)
	}
}

func TestInstCombineFoldsConstants(t *testing.T) {
	f := fnOf(6, &Block{
		Name: "b",
		Instrs: []Instr{
			{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: iv(3)},
			{Op: OpConst, Dst: 1, A: NoReg, B: NoReg, Val: iv(5)},
			{Op: OpCmpDyn, Dst: 2, A: 0, B: 1, Aux: cmpLt}, // fold -> true
			{Op: OpAddI64, Dst: 3, A: 0, B: 1},             // fold -> 8
			{Op: OpNot, Dst: 4, A: 2, B: NoReg},            // fold -> false
			{Op: OpEmit, Dst: 5, A: NoReg, B: NoReg, Cols: []Col{{Kind: ColVal, Reg: 3}, {Kind: ColVal, Reg: 4}}},
		},
		Kind: TermRet,
	})
	n := instCombine(f)
	if n < 3 {
		t.Fatalf("instcombine changed %d, want >= 3", n)
	}
	for _, in := range f.Blocks[0].Instrs {
		switch in.Dst {
		case 2:
			if in.Op != OpConst || !in.Val.Bool() {
				t.Errorf("cmp not folded: %v", in)
			}
		case 3:
			if in.Op != OpConst || in.Val.Int() != 8 {
				t.Errorf("add not folded: %v", in)
			}
		case 4:
			if in.Op != OpConst || in.Val.Bool() {
				t.Errorf("not not folded: %v", in)
			}
		}
	}
}

func TestInstCombineBoolIdentities(t *testing.T) {
	f := fnOf(6, &Block{
		Name: "b",
		Instrs: []Instr{
			{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Val: bv(true)},
			{Op: OpNodeLabelEq, Dst: 1, A: 0, B: NoReg, Sym: "X"}, // dynamic bool
			{Op: OpAnd, Dst: 2, A: 0, B: 1},                       // true && x -> x
			{Op: OpEmit, Dst: 3, A: NoReg, B: NoReg, Cols: []Col{{Kind: ColVal, Reg: 2}}},
		},
		Kind: TermRet,
	})
	instCombine(f)
	// The emit column must now reference register 1 directly.
	var emit *Instr
	for i := range f.Blocks[0].Instrs {
		if f.Blocks[0].Instrs[i].Op == OpEmit {
			emit = &f.Blocks[0].Instrs[i]
		}
	}
	if emit == nil || emit.Cols[0].Reg != 1 {
		t.Errorf("and-identity not propagated: %+v", emit)
	}
}

func TestUnrollDuplicatesSimpleLoopBody(t *testing.T) {
	// header: c = iter.next; br c, body, exit
	// body:   x = node.id; jump header   (no emit -> unrollable)
	f := &Fn{
		Name: "t", NumVals: 4, NumNodes: 2, NumIters: 1,
		Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{{Op: OpIterChunkInit, Dst: 0, A: NoReg, B: NoReg}}, Kind: TermJump, To: 1},
			{Name: "header", Instrs: []Instr{{Op: OpIterNext, Dst: 0, A: 0, B: NoReg}}, Kind: TermBranch, Cond: 0, To: 2, Else: 3},
			{Name: "body", Instrs: []Instr{{Op: OpIterNodeGet, Dst: 0, A: 0, B: NoReg}}, Kind: TermJump, To: 1},
			{Name: "exit", Kind: TermRet},
		},
	}
	n := unrollLoops(f)
	if n != 1 {
		t.Fatalf("unrolled %d loops, want 1", n)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// The body must now branch to a duplicated block.
	body := f.Blocks[2]
	if body.Kind != TermBranch {
		t.Fatalf("body terminator = %v, want branch", body.Kind)
	}
	dup := f.Blocks[body.To]
	if !strings.Contains(dup.Name, "unrolled") {
		t.Errorf("branch target %q is not the unrolled copy", dup.Name)
	}
	if len(dup.Instrs) != len([]Instr{{Op: OpIterNodeGet}}) {
		t.Errorf("unrolled body has %d instrs", len(dup.Instrs))
	}
}

func TestUnrollSkipsEmittingBodies(t *testing.T) {
	f := &Fn{
		Name: "t", NumVals: 4, NumNodes: 2, NumIters: 1,
		Blocks: []*Block{
			{Name: "entry", Instrs: []Instr{{Op: OpIterChunkInit, Dst: 0, A: NoReg, B: NoReg}}, Kind: TermJump, To: 1},
			{Name: "header", Instrs: []Instr{{Op: OpIterNext, Dst: 0, A: 0, B: NoReg}}, Kind: TermBranch, Cond: 0, To: 2, Else: 3},
			{Name: "body", Instrs: []Instr{
				{Op: OpIterNodeGet, Dst: 0, A: 0, B: NoReg},
				{Op: OpEmit, Dst: 1, A: NoReg, B: NoReg, Cols: []Col{{Kind: ColNode, Reg: 0}}},
			}, Kind: TermJump, To: 1},
			{Name: "exit", Kind: TermRet},
		},
	}
	if n := unrollLoops(f); n != 0 {
		t.Errorf("unrolled %d emitting loops, want 0", n)
	}
}

func TestOptimizeShrinksGeneratedCode(t *testing.T) {
	plan := plansUnderTest()["two-hop"]
	fn, err := Compile(plan.Split())
	if err != nil {
		t.Fatal(err)
	}
	blocksBefore := len(fn.Blocks)
	stats := Optimize(fn)
	if err := fn.Verify(); err != nil {
		t.Fatalf("optimized function invalid: %v\n%s", err, fn)
	}
	if len(fn.Blocks) >= blocksBefore {
		t.Errorf("simplifycfg did not reduce blocks: %d -> %d", blocksBefore, len(fn.Blocks))
	}
	total := 0
	for _, s := range stats {
		total += s.Changed
	}
	if total == 0 {
		t.Error("pass cascade changed nothing on a real pipeline")
	}
	if s := DumpStats(stats); !strings.Contains(s, "simplifycfg") {
		t.Errorf("DumpStats output missing pass names: %q", s)
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
