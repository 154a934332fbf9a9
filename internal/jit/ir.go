// Package jit implements the just-in-time query compiler of §6.2: a
// small LLVM-flavoured intermediate representation with basic blocks, a
// produce/consume code generator that fuses a whole query pipeline into
// one IR function, the one optimization pass that changes its output
// (SimplifyCFG), a backend that lowers the optimized IR into specialized
// native Go closures (no per-operator dispatch, no tuple boxing), a
// persistent compiled-code cache keyed by the query signature, and the
// adaptive execution mode that interprets morsels while compilation runs
// in the background.
package jit

import (
	"fmt"
	"strings"

	"poseidon/internal/storage"
)

// Reg is a virtual register index. The bank (value, node, relationship,
// iterator or slot) is implied by the opcode operand position.
type Reg int

// NoReg marks an unused operand.
const NoReg Reg = -1

// Opcode enumerates IR instructions. Graph-access opcodes call the
// engine's AOT-compiled access methods (§6.2: generated code reuses
// AOT-compiled code so it stays compliant with the design goals).
type Opcode uint8

// IR instruction set.
const (
	OpNop Opcode = iota

	// Values.
	OpConst     // dst(val) = Val
	OpConstStr  // dst(val) = string constant Sym, dictionary-encoded at link time
	OpLoadParam // dst(val) = params[Sym]
	OpLoadChunk // dst(val) = current morsel chunk index

	// Stack slots — the Limit counter, which crosses blocks.
	OpAlloca // dst(slot); Val = initial value
	OpLoad   // dst(val) = slot[A]
	OpStore  // slot[Dst] = val A

	// Arithmetic / logic.
	OpAddI64 // dst(val) = A + B (integers)
	OpAnd    // dst(val) = A && B (bools)
	OpOr
	OpNot // dst(val) = !A

	// Comparisons: dynamic (dictionary-aware) and type-specialized
	// variants; codegen picks a typed form when the operand types are known
	// at compile time (§6.2 requirement 3).
	OpCmpDyn      // dst(val bool) = cmp(Aux=CmpOp, A, B) via CompareValues
	OpCmpI64      // dst = cmp(Aux, A, B) as signed integers
	OpCmpI64Guard // dst = integer compare with a runtime type guard (falls back to dyn)
	OpCmpBool     // dst = cmp(Aux, A, B) as bools
	OpCmpCode     // dst = cmp(Aux==Eq/Ne only, A, B) as dictionary codes

	// Node/relationship field access.
	OpNodeIDVal   // dst(val) = id of node A(node)
	OpRelIDVal    // dst(val) = id of rel A(rel)
	OpNodeProp    // dst(val) = prop Sym of node A(node); nil if absent
	OpRelProp     // dst(val) = prop Sym of rel A(rel)
	OpNodeLabelEq // dst(val bool) = label(node A) == Sym
	OpRelLabelEq  // dst(val bool) = label(rel A) == Sym
	OpRelSrcID    // dst(val) = src id of rel A
	OpRelDstID    // dst(val) = dst id of rel A
	OpRelOtherID  // dst(val) = endpoint of rel A that is not node B(node)

	// Point access (AOT methods; may abort the transaction).
	OpGetNode // dst(node) = GetNode(id from val A) of label Sym (empty: any); Aux2 dst2(val bool) = found

	// Iterators.
	OpIterChunkInit    // dst(iter) over the nodes of morsel (val A); Sym = label filter
	OpIterRelChunkInit // dst(iter) over the rels of morsel (val A); Sym = label filter
	OpIterOutRels      // dst(iter) over out-rels of node A; Sym = label filter
	OpIterInRels       // dst(iter) over in-rels of node A; Sym = label filter
	OpIterIndex        // dst(iter) over index (Sym="label\x00key") hits for val A
	OpIterNext         // dst(val bool) = advance iter A
	OpIterNodeGet      // dst(node) = current node of iter A
	OpIterRelGet       // dst(rel) = current rel of iter A

	// Updates (IU queries) — call the MVTO transaction methods.
	OpCreateNode // dst(node); Sym = label; Pairs = props from val regs
	OpCreateRel  // dst(rel); Sym = label; A,B = src,dst nodes; Pairs = props
	OpSetProps   // node A or rel A (Aux: 0=node,1=rel); Pairs = props
	OpDelete     // node A or rel A (Aux: 0=node,1=rel)

	// Output: push a tuple of columns; dst(val bool) = downstream wants
	// more.
	OpEmit // Cols = column regs (bank per ColKinds)
)

// CmpOp mirrors query.CmpOp for the Aux field of comparisons.
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// ColKind tags an emitted column's register bank.
type ColKind uint8

// Emitted column kinds.
const (
	ColVal ColKind = iota
	ColNode
	ColRel
)

// Pair is a (property key, value register) pair for update opcodes.
type Pair struct {
	Key string
	Val Reg
}

// Col is one emitted output column.
type Col struct {
	Kind ColKind
	Reg  Reg
}

// Instr is one IR instruction. The exported fields make the IR
// serializable for the persistent code cache.
type Instr struct {
	Op    Opcode
	Dst   Reg
	Dst2  Reg // secondary result (e.g. found-flag of OpGetNode)
	A, B  Reg
	Aux   int           // comparison op, object kind, etc.
	Val   storage.Value // constant immediate
	Sym   string        // label/key/param name
	Pairs []Pair        // update property assignments
	Cols  []Col         // emit columns
}

// TermKind classifies block terminators.
type TermKind uint8

// Terminators.
const (
	TermJump TermKind = iota
	TermBranch
	TermRet
)

// Block is an IR basic block: straight-line instructions plus one
// terminator.
type Block struct {
	Name   string
	Instrs []Instr
	Kind   TermKind
	Cond   Reg // for TermBranch (val reg holding a bool)
	To     int // target block index (TermJump, TermBranch true)
	Else   int // TermBranch false target
}

// Fn is an IR function: the fused query pipeline (§6.2 "transform the
// complete query pipeline into a single LLVM IR function").
type Fn struct {
	Name     string
	Blocks   []*Block // Blocks[0] is the entry
	NumVals  int
	NumNodes int
	NumRels  int
	NumIters int
	NumSlots int
	OutCols  []Col // layout of emitted tuples
}

// NumInstrs counts instructions across all blocks.
func (f *Fn) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// String renders the function in an LLVM-ish textual form, for debugging
// and golden tests of the passes.
func (f *Fn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fn %s(vals=%d nodes=%d rels=%d iters=%d slots=%d) {\n",
		f.Name, f.NumVals, f.NumNodes, f.NumRels, f.NumIters, f.NumSlots)
	for i, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d: ; %s\n", i, blk.Name)
		for _, in := range blk.Instrs {
			b.WriteString("  ")
			b.WriteString(in.String())
			b.WriteByte('\n')
		}
		switch blk.Kind {
		case TermJump:
			fmt.Fprintf(&b, "  jump b%d\n", blk.To)
		case TermBranch:
			fmt.Fprintf(&b, "  br v%d, b%d, b%d\n", blk.Cond, blk.To, blk.Else)
		case TermRet:
			b.WriteString("  ret\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

var opNames = map[Opcode]string{
	OpNop: "nop", OpConst: "const", OpConstStr: "const.str", OpLoadParam: "param",
	OpLoadChunk: "loadchunk",
	OpAlloca:    "alloca", OpLoad: "load", OpStore: "store",
	OpAddI64: "add.i64", OpAnd: "and", OpOr: "or", OpNot: "not",
	OpCmpDyn: "cmp.dyn", OpCmpI64: "cmp.i64", OpCmpI64Guard: "cmp.i64g",
	OpCmpBool: "cmp.bool", OpCmpCode: "cmp.code",
	OpNodeIDVal: "node.id", OpRelIDVal: "rel.id",
	OpNodeProp: "node.prop", OpRelProp: "rel.prop",
	OpNodeLabelEq: "node.labeleq", OpRelLabelEq: "rel.labeleq",
	OpRelSrcID: "rel.src", OpRelDstID: "rel.dst", OpRelOtherID: "rel.other",
	OpGetNode:       "getnode",
	OpIterChunkInit: "iter.chunk", OpIterRelChunkInit: "iter.relchunk",
	OpIterOutRels: "iter.outrels", OpIterInRels: "iter.inrels",
	OpIterIndex: "iter.index", OpIterNext: "iter.next",
	OpIterNodeGet: "iter.nodeget", OpIterRelGet: "iter.relget",
	OpCreateNode: "create.node", OpCreateRel: "create.rel",
	OpSetProps: "setprops", OpDelete: "delete",
	OpEmit: "emit",
}

func (in Instr) String() string {
	name := opNames[in.Op]
	var b strings.Builder
	if in.Dst != NoReg && in.Op != OpStore {
		fmt.Fprintf(&b, "v%d = ", in.Dst)
	}
	b.WriteString(name)
	if in.A != NoReg {
		fmt.Fprintf(&b, " v%d", in.A)
	}
	if in.B != NoReg {
		fmt.Fprintf(&b, ", v%d", in.B)
	}
	if in.Op == OpStore {
		fmt.Fprintf(&b, " -> s%d", in.Dst)
	}
	if in.Sym != "" {
		fmt.Fprintf(&b, " %q", in.Sym)
	}
	if in.Op == OpConst {
		fmt.Fprintf(&b, " #%v/%d", in.Val.Type, in.Val.Raw)
	}
	if in.Op == OpCmpDyn || in.Op == OpCmpI64 || in.Op == OpCmpI64Guard || in.Op == OpCmpBool || in.Op == OpCmpCode {
		fmt.Fprintf(&b, " op=%d", in.Aux)
	}
	for _, c := range in.Cols {
		fmt.Fprintf(&b, " col(%d:v%d)", c.Kind, c.Reg)
	}
	return b.String()
}

// Verify checks structural invariants: terminator targets in range and
// register indices within the declared banks. It returns the first
// violation found.
func (f *Fn) Verify() error {
	for bi, blk := range f.Blocks {
		switch blk.Kind {
		case TermJump:
			if blk.To < 0 || blk.To >= len(f.Blocks) {
				return fmt.Errorf("jit: block b%d: jump target b%d out of range", bi, blk.To)
			}
		case TermBranch:
			if blk.To < 0 || blk.To >= len(f.Blocks) || blk.Else < 0 || blk.Else >= len(f.Blocks) {
				return fmt.Errorf("jit: block b%d: branch targets out of range", bi)
			}
			if blk.Cond < 0 || int(blk.Cond) >= f.NumVals {
				return fmt.Errorf("jit: block b%d: branch cond v%d out of range", bi, blk.Cond)
			}
		}
	}
	return nil
}
