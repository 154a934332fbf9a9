package jit

import (
	"fmt"

	"poseidon/internal/storage"
)

// The optimization pass cascade of §6.2. The paper applies
// PromoteMemoryToRegister, ControlFlowGraphSimplification, LoopUnrolling,
// DeadCodeElimination and InstructionCombining; this file implements the
// same cascade over our IR. Each pass reports what it changed so tests
// and the compiler's statistics can observe it.

// PassStat records the effect of one optimization pass.
type PassStat struct {
	Name    string
	Changed int
}

// Optimize runs the full pass cascade in the paper's order and returns
// per-pass statistics.
func Optimize(f *Fn) []PassStat {
	stats := []PassStat{
		{Name: "mem2reg", Changed: promoteMemToReg(f)},
		{Name: "simplifycfg", Changed: simplifyCFG(f)},
		{Name: "loop-unroll", Changed: unrollLoops(f)},
		{Name: "dce", Changed: deadCodeElim(f)},
		{Name: "instcombine", Changed: instCombine(f)},
	}
	// Cleanup after combining: combined instructions may leave dead code
	// and trivial control flow behind (LLVM pipelines iterate similarly).
	stats = append(stats,
		PassStat{Name: "dce", Changed: deadCodeElim(f)},
		PassStat{Name: "simplifycfg", Changed: simplifyCFG(f)},
	)
	return stats
}

// --- PromoteMemoryToRegister ---

// promoteMemToReg forwards loads from stack slots to the most recent
// store within the same basic block and removes allocas that end up with
// no remaining loads outside such patterns. Slots whose value crosses
// block boundaries (e.g. the Limit counter) stay in memory — the same
// restriction LLVM's mem2reg lifts only with phi insertion.
func promoteMemToReg(f *Fn) int {
	changed := 0
	// In-block store→load forwarding.
	for _, blk := range f.Blocks {
		last := map[Reg]Reg{} // slot -> value reg of latest store
		repl := map[Reg]Reg{} // load dst -> forwarded value reg
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			rewriteOperands(in, repl)
			switch in.Op {
			case OpStore:
				last[in.Dst] = in.A
			case OpLoad:
				if v, ok := last[in.A]; ok {
					repl[in.Dst] = v
					in.Op = OpNop
					changed++
				}
			}
		}
		if len(repl) > 0 {
			rewriteTerm(blk, repl)
		}
	}
	// Drop allocas/stores for slots that no longer have any loads.
	loads := map[Reg]int{}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == OpLoad {
				loads[in.A]++
			}
		}
	}
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if (in.Op == OpAlloca || in.Op == OpStore) && loads[in.Dst] == 0 {
				in.Op = OpNop
				changed++
			}
		}
	}
	compactNops(f)
	return changed
}

// rewriteOperands substitutes value-register operands through repl.
func rewriteOperands(in *Instr, repl map[Reg]Reg) {
	if len(repl) == 0 {
		return
	}
	sub := func(r Reg) Reg {
		if n, ok := repl[r]; ok {
			return n
		}
		return r
	}
	// Only value-bank operands participate; object operands are keyed by
	// opcode and never alias slots or loads.
	switch in.Op {
	case OpStore:
		in.A = sub(in.A)
	case OpAddI64, OpAnd, OpOr, OpCmpDyn, OpCmpI64, OpCmpI64Guard, OpCmpBool, OpCmpCode:
		in.A, in.B = sub(in.A), sub(in.B)
	case OpNot, OpGetNode, OpIterChunkInit, OpIterRelChunkInit, OpIterIndex:
		in.A = sub(in.A)
	case OpEmit:
		for i, c := range in.Cols {
			if c.Kind == ColVal {
				in.Cols[i].Reg = sub(c.Reg)
			}
		}
	}
	for i := range in.Pairs {
		in.Pairs[i].Val = sub(in.Pairs[i].Val)
	}
}

func rewriteTerm(blk *Block, repl map[Reg]Reg) {
	if blk.Kind == TermBranch {
		if n, ok := repl[blk.Cond]; ok {
			blk.Cond = n
		}
	}
}

func compactNops(f *Fn) {
	for _, blk := range f.Blocks {
		kept := blk.Instrs[:0]
		for _, in := range blk.Instrs {
			if in.Op != OpNop {
				kept = append(kept, in)
			}
		}
		blk.Instrs = kept
	}
}

// --- ControlFlowGraphSimplification ---

// simplifyCFG threads jumps through empty blocks, merges single-successor
// / single-predecessor block pairs, and removes unreachable blocks. This
// is the pass with the largest effect on our backend, which dispatches
// once per executed block.
func simplifyCFG(f *Fn) int {
	changed := 0
	for {
		n := threadEmptyJumps(f)
		n += mergeLinearBlocks(f)
		n += removeUnreachable(f)
		if n == 0 {
			return changed
		}
		changed += n
	}
}

func threadEmptyJumps(f *Fn) int {
	// target(i) follows chains of empty jump-only blocks.
	final := make([]int, len(f.Blocks))
	for i, blk := range f.Blocks {
		final[i] = i
		if len(blk.Instrs) == 0 && blk.Kind == TermJump {
			final[i] = blk.To
		}
	}
	resolve := func(i int) int {
		seen := map[int]bool{}
		for final[i] != i && !seen[i] {
			seen[i] = true
			i = final[i]
		}
		return i
	}
	changed := 0
	for _, blk := range f.Blocks {
		switch blk.Kind {
		case TermJump:
			if t := resolve(blk.To); t != blk.To {
				blk.To = t
				changed++
			}
		case TermBranch:
			if t := resolve(blk.To); t != blk.To {
				blk.To = t
				changed++
			}
			if t := resolve(blk.Else); t != blk.Else {
				blk.Else = t
				changed++
			}
		}
	}
	return changed
}

func mergeLinearBlocks(f *Fn) int {
	preds := predCounts(f)
	changed := 0
	for i, blk := range f.Blocks {
		if blk.Kind != TermJump {
			continue
		}
		succ := blk.To
		if succ == i || succ == 0 {
			continue // self-loop or entry
		}
		if preds[succ] != 1 {
			continue
		}
		s := f.Blocks[succ]
		blk.Instrs = append(blk.Instrs, s.Instrs...)
		blk.Kind, blk.Cond, blk.To, blk.Else = s.Kind, s.Cond, s.To, s.Else
		s.Instrs = nil
		s.Kind = TermRet // now unreachable; removed below
		changed++
		preds = predCounts(f)
	}
	return changed
}

func predCounts(f *Fn) []int {
	preds := make([]int, len(f.Blocks))
	for _, blk := range f.Blocks {
		switch blk.Kind {
		case TermJump:
			preds[blk.To]++
		case TermBranch:
			preds[blk.To]++
			preds[blk.Else]++
		}
	}
	return preds
}

func removeUnreachable(f *Fn) int {
	reach := make([]bool, len(f.Blocks))
	var visit func(int)
	visit = func(i int) {
		if reach[i] {
			return
		}
		reach[i] = true
		blk := f.Blocks[i]
		switch blk.Kind {
		case TermJump:
			visit(blk.To)
		case TermBranch:
			visit(blk.To)
			visit(blk.Else)
		}
	}
	visit(0)
	removedInstrs := 0
	remap := make([]int, len(f.Blocks))
	var kept []*Block
	for i, blk := range f.Blocks {
		if reach[i] {
			remap[i] = len(kept)
			kept = append(kept, blk)
		} else {
			removedInstrs += len(blk.Instrs) + 1
		}
	}
	if len(kept) == len(f.Blocks) {
		return 0
	}
	for _, blk := range kept {
		switch blk.Kind {
		case TermJump:
			blk.To = remap[blk.To]
		case TermBranch:
			blk.To = remap[blk.To]
			blk.Else = remap[blk.Else]
		}
	}
	f.Blocks = kept
	return removedInstrs
}

// --- LoopUnrolling ---

// unrollLoops unrolls single-block self-loop bodies by a factor of two:
// the body is duplicated behind a second loop-condition check, halving
// the per-iteration block dispatch overhead. Only loops whose header
// condition is a plain iterator advance are transformed (the common scan
// shape after simplifyCFG).
func unrollLoops(f *Fn) int {
	changed := 0
	for hi, header := range f.Blocks {
		if header.Kind != TermBranch || len(header.Instrs) == 0 {
			continue
		}
		// Header must end with: cond = iter.next; br cond, body, exit.
		last := header.Instrs[len(header.Instrs)-1]
		if last.Op != OpIterNext || last.Dst != header.Cond {
			continue
		}
		bodyIdx := header.To
		if bodyIdx == hi {
			continue
		}
		body := f.Blocks[bodyIdx]
		if body.Kind != TermJump || body.To != hi {
			continue // body must jump straight back to the header
		}
		if emitsOrBranches(body) {
			continue // bodies that can early-return keep their shape
		}
		// body': original instrs; cond2 = iter.next; br cond2, body2, exit
		// body2: copy of instrs (fresh dst registers); jump header.
		body2 := &Block{Name: body.Name + ".unrolled", Kind: TermJump, To: hi}
		remap := map[Reg]Reg{}
		for _, in := range body.Instrs {
			dup := in
			dup.Pairs = append([]Pair(nil), in.Pairs...)
			dup.Cols = append([]Col(nil), in.Cols...)
			rewriteOperands(&dup, remap)
			if dup.Dst != NoReg && dup.Op != OpStore {
				fresh := renameDst(f, dup.Op)
				remap[dup.Dst] = fresh
				dup.Dst = fresh
			}
			body2.Instrs = append(body2.Instrs, dup)
		}
		cond2 := Reg(f.NumVals)
		f.NumVals++
		body.Instrs = append(body.Instrs, Instr{Op: OpIterNext, Dst: cond2, A: last.A, B: NoReg})
		f.Blocks = append(f.Blocks, body2)
		body.Kind, body.Cond, body.To, body.Else = TermBranch, cond2, len(f.Blocks)-1, header.Else
		changed++
	}
	return changed
}

// emitsOrBranches reports whether the block contains instructions whose
// duplication would change semantics under early exits.
func emitsOrBranches(b *Block) bool {
	for _, in := range b.Instrs {
		switch in.Op {
		case OpEmit, OpCreateNode, OpCreateRel, OpSetProps, OpDelete, OpGetNode:
			return true
		}
	}
	return false
}

// renameDst allocates a fresh destination register in the opcode's bank.
func renameDst(f *Fn, op Opcode) Reg {
	switch op {
	case OpIterNodeGet, OpGetNode, OpCreateNode:
		r := Reg(f.NumNodes)
		f.NumNodes++
		return r
	case OpIterRelGet, OpCreateRel:
		r := Reg(f.NumRels)
		f.NumRels++
		return r
	case OpIterChunkInit, OpIterRelChunkInit,
		OpIterOutRels, OpIterInRels, OpIterIndex:
		r := Reg(f.NumIters)
		f.NumIters++
		return r
	case OpAlloca:
		r := Reg(f.NumSlots)
		f.NumSlots++
		return r
	default:
		r := Reg(f.NumVals)
		f.NumVals++
		return r
	}
}

// --- DeadCodeElimination ---

// pure reports whether the instruction has no side effects and can be
// removed when its results are unused.
func pure(op Opcode) bool {
	switch op {
	case OpConst, OpConstStr, OpLoadParam, OpLoadChunk, OpLoad,
		OpAddI64, OpAnd, OpOr, OpNot,
		OpCmpDyn, OpCmpI64, OpCmpI64Guard, OpCmpBool, OpCmpCode,
		OpNodeIDVal, OpRelIDVal, OpNodeProp, OpRelProp,
		OpNodeLabelEq, OpRelLabelEq, OpRelSrcID, OpRelDstID, OpRelOtherID:
		return true
	default:
		return false
	}
}

// deadCodeElim removes pure instructions whose value-bank destination is
// never used (the IR equivalent of unreachable-code elimination plus
// trivially-dead instruction removal).
func deadCodeElim(f *Fn) int {
	used := map[Reg]bool{}
	note := func(r Reg) {
		if r != NoReg {
			used[r] = true
		}
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			switch in.Op {
			case OpStore:
				note(in.A)
			case OpEmit:
				for _, c := range in.Cols {
					if c.Kind == ColVal {
						note(c.Reg)
					}
				}
			default:
				note(in.A)
				note(in.B)
			}
			for _, p := range in.Pairs {
				note(p.Val)
			}
		}
		if blk.Kind == TermBranch {
			note(blk.Cond)
		}
	}
	// Note: object-bank operands share the used-set with value registers;
	// since banks never mix within one opcode's operand positions, a
	// spurious keep is possible but a spurious remove is not.
	changed := 0
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if pure(in.Op) && in.Dst != NoReg && !used[in.Dst] {
				in.Op = OpNop
				changed++
			}
		}
	}
	compactNops(f)
	return changed
}

// --- InstructionCombining ---

// instCombine folds constant expressions, simplifies boolean identities
// and specializes dynamic comparisons whose operand types are known
// (§6.2: code can be generated for individual types).
func instCombine(f *Fn) int {
	consts := map[Reg]storage.Value{}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == OpConst {
				consts[in.Dst] = in.Val
			}
		}
	}
	changed := 0
	for _, blk := range f.Blocks {
		repl := map[Reg]Reg{}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			rewriteOperands(in, repl)
			switch in.Op {
			case OpCmpDyn:
				av, aok := consts[in.A]
				bv, bok := consts[in.B]
				switch {
				case aok && bok && av.Type == bv.Type:
					// Full constant fold.
					if v, ok := foldCmp(in.Aux, av, bv); ok {
						*in = Instr{Op: OpConst, Dst: in.Dst, A: NoReg, B: NoReg, Val: v}
						consts[in.Dst] = v
						changed++
					}
				case aok && av.Type == storage.TypeInt, bok && bv.Type == storage.TypeInt:
					// One constant int side: specialize optimistically; the
					// specialized opcode still type-checks at run time.
					in.Op = OpCmpI64Guard
					changed++
				}
			case OpAnd:
				if v, ok := consts[in.A]; ok && v.Type == storage.TypeBool {
					changed++
					if v.Bool() {
						repl[in.Dst] = in.B // true && x == x
						in.Op = OpNop
					} else {
						*in = Instr{Op: OpConst, Dst: in.Dst, A: NoReg, B: NoReg, Val: storage.BoolValue(false)}
						consts[in.Dst] = storage.BoolValue(false)
					}
				} else if v, ok := consts[in.B]; ok && v.Type == storage.TypeBool {
					changed++
					if v.Bool() {
						repl[in.Dst] = in.A
						in.Op = OpNop
					} else {
						*in = Instr{Op: OpConst, Dst: in.Dst, A: NoReg, B: NoReg, Val: storage.BoolValue(false)}
						consts[in.Dst] = storage.BoolValue(false)
					}
				}
			case OpOr:
				if v, ok := consts[in.A]; ok && v.Type == storage.TypeBool {
					changed++
					if !v.Bool() {
						repl[in.Dst] = in.B // false || x == x
						in.Op = OpNop
					} else {
						*in = Instr{Op: OpConst, Dst: in.Dst, A: NoReg, B: NoReg, Val: storage.BoolValue(true)}
						consts[in.Dst] = storage.BoolValue(true)
					}
				}
			case OpNot:
				if v, ok := consts[in.A]; ok && v.Type == storage.TypeBool {
					*in = Instr{Op: OpConst, Dst: in.Dst, A: NoReg, B: NoReg, Val: storage.BoolValue(!v.Bool())}
					consts[in.Dst] = storage.BoolValue(!v.Bool())
					changed++
				}
			case OpAddI64:
				av, aok := consts[in.A]
				bv, bok := consts[in.B]
				if aok && bok {
					v := storage.IntValue(av.Int() + bv.Int())
					*in = Instr{Op: OpConst, Dst: in.Dst, A: NoReg, B: NoReg, Val: v}
					consts[in.Dst] = v
					changed++
				}
			}
		}
		if len(repl) > 0 {
			rewriteTerm(blk, repl)
			// Later blocks may also use replaced registers.
			for _, other := range f.Blocks {
				for j := range other.Instrs {
					rewriteOperands(&other.Instrs[j], repl)
				}
				rewriteTerm(other, repl)
			}
		}
	}
	compactNops(f)
	return changed
}

func foldCmp(aux int, a, b storage.Value) (storage.Value, bool) {
	var c int
	switch a.Type {
	case storage.TypeInt:
		switch {
		case a.Int() < b.Int():
			c = -1
		case a.Int() > b.Int():
			c = 1
		}
	case storage.TypeFloat:
		switch {
		case a.Float() < b.Float():
			c = -1
		case a.Float() > b.Float():
			c = 1
		}
	case storage.TypeBool:
		switch {
		case !a.Bool() && b.Bool():
			c = -1
		case a.Bool() && !b.Bool():
			c = 1
		}
	default:
		return storage.Value{}, false
	}
	var r bool
	switch aux {
	case cmpEq:
		r = c == 0
	case cmpNe:
		r = c != 0
	case cmpLt:
		r = c < 0
	case cmpLe:
		r = c <= 0
	case cmpGt:
		r = c > 0
	case cmpGe:
		r = c >= 0
	default:
		return storage.Value{}, false
	}
	return storage.BoolValue(r), true
}

// DumpStats renders pass statistics for logs.
func DumpStats(stats []PassStat) string {
	s := ""
	for _, st := range stats {
		s += fmt.Sprintf("%s:%d ", st.Name, st.Changed)
	}
	return s
}
