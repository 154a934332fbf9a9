package jit

// The optimization pass of §6.2. The paper runs LLVM's cascade —
// PromoteMemoryToRegister, SimplifyCFG, LoopUnrolling, DCE and
// InstructionCombining. Over this IR only SimplifyCFG rewrites anything
// on the plans the repo compiles; the one rewrite InstructionCombining
// made, the integer-guarded comparison, codegen emits itself
// (EXPERIMENTS.md, "The pass cascade, priced").

// Optimize is SimplifyCFG: it threads jumps through empty blocks, merges
// single-successor / single-predecessor block pairs, removes unreachable
// blocks, and returns the number of changes it made. The backend
// dispatches once per executed block, so each merge saves a block
// transfer per tuple that reaches it.
func Optimize(f *Fn) int {
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
