// Package query implements the push-based query engine of §6.1: a
// graph-specific algebra (NodeScan, IndexScan, ForeachRelationship/Expand,
// Filter, Project, Join, aggregation and update operators), an
// ahead-of-time-compiled interpreter that links per-operator functions
// into a cascade, and morsel-driven parallel scans. The JIT compiler of
// package jit consumes the same algebra.
package query

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Dir is a traversal direction.
type Dir int

// Traversal directions.
const (
	Out Dir = iota
	In
	Both
)

func (d Dir) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	default:
		return "both"
	}
}

// End selects a relationship endpoint for GetNode.
type End int

// Relationship endpoints.
const (
	Src End = iota
	Dst
	Other // the endpoint that is not the node in OtherCol
)

func (e End) String() string {
	switch e {
	case Src:
		return "src"
	case Dst:
		return "dst"
	default:
		return "other"
	}
}

// Op is a logical graph-algebra operator. A Plan is a tree of Ops; the
// leaf is always an access path (NodeScan, IndexScan, NodeByID or
// CreateNode).
type Op interface {
	sig(b *strings.Builder)
	child() Op // nil for access paths
}

// Plan is a graph-algebra expression tree, handled by pointer only and
// immutable once its signature or split has been asked for.
type Plan struct {
	Root  Op
	sig   atomic.Pointer[string] // Signature, formatted once: every run asks
	split atomic.Pointer[Split]  // Split, likewise
}

// Signature returns the query identifier used as the key of the
// persistent compiled-code cache (§6.2 "a unique query identifier that
// comprises the operators' identifiers"). Parameters contribute their
// names, not their values, so one compilation serves all bindings.
func (p *Plan) Signature() string {
	if s := p.sig.Load(); s != nil {
		return *s
	}
	var b strings.Builder
	p.Root.sig(&b)
	s := b.String()
	p.sig.Store(&s)
	return s
}

// Split is what every executor asks of a plan, worked out once: the
// operator chain, where the streaming pipeline ends, and the facts that
// decide who may run it.
type Split struct {
	// Ops is the chain from the access path up to the root (a join is
	// followed down its streamed, left side). Ops[:Cut] is the pipeline —
	// what a morsel worker or a compiled program runs — and Ops[Cut:] the
	// tail, run single-threaded over what the pipeline produced. The cut
	// is at the first pipeline breaker above the leaf; over a table scan a
	// Limit cuts as well, so that it counts once and not once per worker
	// or morsel.
	Ops []Op
	Cut int
	// Scan: the leaf is a NodeScan or RelScan, which runs morsel by morsel.
	Scan bool
	// Updates: an operator modifies the graph (CreateNode, CreateRel,
	// SetProps, Delete), on either side of a join. The facade keeps such
	// plans off read-only entry points, whose transaction is rolled back,
	// and off the morsel workers, which share one transaction.
	Updates bool
	// Join: the plan holds a HashJoin, whose build side is a pipeline of
	// its own — nothing the code generator handles.
	Join bool
}

// Split returns the plan's split.
func (p *Plan) Split() *Split {
	if sp := p.split.Load(); sp != nil {
		return sp
	}
	sp := &Split{}
	for cur := p.Root; cur != nil; cur = cur.child() {
		sp.Ops = append(sp.Ops, cur)
		sp.note(cur)
	}
	slices.Reverse(sp.Ops)
	switch sp.Ops[0].(type) {
	case *NodeScan, *RelScan:
		sp.Scan = true
	}
	sp.Cut = len(sp.Ops)
	for i, op := range sp.Ops {
		if _, limit := op.(*Limit); isBreaker(op) || limit && sp.Scan {
			sp.Cut = i
			break
		}
	}
	p.split.Store(sp)
	return sp
}

// note records what op means for who may run the plan.
func (sp *Split) note(op Op) {
	switch o := op.(type) {
	case *CreateNode, *CreateRel, *SetProps, *Delete:
		sp.Updates = true
	case *HashJoin:
		sp.Join = true
		for cur := o.Right; cur != nil; cur = cur.child() {
			sp.note(cur)
		}
	}
}

// isBreaker reports whether the operator must see all input tuples before
// emitting (a pipeline breaker in the §6.1 sense).
func isBreaker(op Op) bool {
	switch op.(type) {
	case *OrderBy, *CountAgg, *Distinct, *HashJoin:
		return true
	default:
		return false
	}
}

// Morsels reports whether morsel workers may run the pipeline in
// parallel: a table scan feeds it and nothing in the plan writes or joins.
func (sp *Split) Morsels() bool { return sp.Scan && !sp.Updates && !sp.Join }

// HasUpdates reports whether the plan modifies the graph.
func (p *Plan) HasUpdates() bool { return p.Split().Updates }

// --- access paths ---

// NodeScan scans the node table, optionally restricted to one label.
type NodeScan struct {
	Label string // empty = all labels
}

func (o *NodeScan) sig(b *strings.Builder) { fmt.Fprintf(b, "NodeScan(%s)", o.Label) }
func (o *NodeScan) child() Op              { return nil }

// RelScan scans the relationship table, optionally restricted to a label.
type RelScan struct {
	Label string
}

func (o *RelScan) sig(b *strings.Builder) { fmt.Fprintf(b, "RelScan(%s)", o.Label) }
func (o *RelScan) child() Op              { return nil }

// NodeByID produces the single node whose id is bound to Param.
type NodeByID struct {
	Param string
}

func (o *NodeByID) sig(b *strings.Builder) { fmt.Fprintf(b, "NodeByID($%s)", o.Param) }
func (o *NodeByID) child() Op              { return nil }

// IndexScan looks nodes up in the (Label, Key) B+-tree index. Value is
// usually a Param or Const expression.
type IndexScan struct {
	Label string
	Key   string
	Value Expr
}

func (o *IndexScan) sig(b *strings.Builder) {
	fmt.Fprintf(b, "IndexScan(%s,%s,", o.Label, o.Key)
	o.Value.sig(b)
	b.WriteByte(')')
}
func (o *IndexScan) child() Op { return nil }

// CreateNode is the Create access path (§6.2): it creates one node and
// emits it as a single-tuple pipeline source. With a non-nil Input it
// acts as a pipeline operator instead, creating one node per input tuple
// and appending it as a new column (used by multi-create Cypher
// statements).
type CreateNode struct {
	Input Op // nil = access path
	Label string
	Props []PropSpec
}

func (o *CreateNode) sig(b *strings.Builder) {
	if o.Input != nil {
		o.Input.sig(b)
		b.WriteByte('|')
	}
	fmt.Fprintf(b, "CreateNode(%s", o.Label)
	for _, p := range o.Props {
		fmt.Fprintf(b, ",%s=", p.Key)
		p.Val.sig(b)
	}
	b.WriteByte(')')
}
func (o *CreateNode) child() Op { return o.Input }

// --- pipeline operators ---

// Expand is the paper's ForeachRelationship: for each input tuple it
// iterates the relationships of the node in column Col, pushing
// tuple+relationship. It leverages the direct offset addressability of
// the adjacency lists (DD4).
type Expand struct {
	Input    Op
	Col      int
	Dir      Dir
	RelLabel string // empty = any label
}

func (o *Expand) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|Expand(%d,%s,%s)", o.Col, o.Dir, o.RelLabel)
}
func (o *Expand) child() Op { return o.Input }

// GetNode fetches a relationship endpoint, pushing tuple+node. With a
// Label it fetches only an endpoint of that label and drops the tuple
// otherwise, reading no record the label mirror knows to be another's.
type GetNode struct {
	Input    Op
	RelCol   int
	End      End
	OtherCol int    // used when End == Other
	Label    string // empty = any label
}

func (o *GetNode) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|GetNode(%d,%s,%d,%s)", o.RelCol, o.End, o.OtherCol, o.Label)
}
func (o *GetNode) child() Op { return o.Input }

// NodeLookup is a pipeline-side index lookup: for every input tuple it
// looks up nodes with the given label whose Key property equals Value and
// pushes tuple+node per hit. It is the access pattern of the IU update
// queries, which locate several existing nodes by business id within one
// pipeline.
type NodeLookup struct {
	Input Op
	Label string
	Key   string
	Value Expr
}

func (o *NodeLookup) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|NodeLookup(%s,%s,", o.Label, o.Key)
	o.Value.sig(b)
	b.WriteByte(')')
}
func (o *NodeLookup) child() Op { return o.Input }

// Filter keeps tuples for which Pred evaluates to true.
type Filter struct {
	Input Op
	Pred  Expr
}

func (o *Filter) sig(b *strings.Builder) {
	o.Input.sig(b)
	b.WriteString("|Filter(")
	o.Pred.sig(b)
	b.WriteByte(')')
}
func (o *Filter) child() Op { return o.Input }

// Project maps each tuple to a row of value expressions; it is the usual
// pipeline tail.
type Project struct {
	Input Op
	Cols  []Expr
}

func (o *Project) sig(b *strings.Builder) {
	o.Input.sig(b)
	b.WriteString("|Project(")
	for i, c := range o.Cols {
		if i > 0 {
			b.WriteByte(',')
		}
		c.sig(b)
	}
	b.WriteByte(')')
}
func (o *Project) child() Op { return o.Input }

// Limit stops the pipeline after N tuples.
type Limit struct {
	Input Op
	N     int
}

func (o *Limit) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|Limit(%d)", o.N)
}
func (o *Limit) child() Op { return o.Input }

// OrderBy is a pipeline breaker: it materializes, sorts by Key, and emits
// (optionally only the first Limit tuples).
type OrderBy struct {
	Input Op
	Key   Expr
	Desc  bool
	Limit int // 0 = all
}

func (o *OrderBy) sig(b *strings.Builder) {
	o.Input.sig(b)
	b.WriteString("|OrderBy(")
	o.Key.sig(b)
	fmt.Fprintf(b, ",%v,%d)", o.Desc, o.Limit)
}
func (o *OrderBy) child() Op { return o.Input }

// Distinct removes duplicate tuples (by projected value identity).
type Distinct struct {
	Input Op
	Key   Expr
}

func (o *Distinct) sig(b *strings.Builder) {
	o.Input.sig(b)
	b.WriteString("|Distinct(")
	o.Key.sig(b)
	b.WriteByte(')')
}
func (o *Distinct) child() Op { return o.Input }

// CountAgg is a pipeline breaker emitting a single count row.
type CountAgg struct {
	Input Op
}

func (o *CountAgg) sig(b *strings.Builder) {
	o.Input.sig(b)
	b.WriteString("|Count")
}
func (o *CountAgg) child() Op { return o.Input }

// HashJoin materializes the right input keyed by RKey (§6.2: "the right
// sub-pipeline of the join is the side which will be materialized"), then
// streams the left input, emitting leftTuple+rightTuple on key equality.
type HashJoin struct {
	Left  Op
	Right Op
	LKey  Expr
	RKey  Expr
}

func (o *HashJoin) sig(b *strings.Builder) {
	b.WriteString("HashJoin[")
	o.Left.sig(b)
	b.WriteString("][")
	o.Right.sig(b)
	b.WriteString("](")
	o.LKey.sig(b)
	b.WriteByte(',')
	o.RKey.sig(b)
	b.WriteByte(')')
}
func (o *HashJoin) child() Op { return o.Left }

// --- update operators (IU queries) ---

// PropSpec assigns the result of an expression to a property key.
type PropSpec struct {
	Key string
	Val Expr
}

// CreateRel creates a relationship from the node in SrcCol to the node in
// DstCol for every input tuple, pushing tuple+relationship.
type CreateRel struct {
	Input  Op
	SrcCol int
	DstCol int
	Label  string
	Props  []PropSpec
}

func (o *CreateRel) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|CreateRel(%d,%d,%s", o.SrcCol, o.DstCol, o.Label)
	for _, p := range o.Props {
		fmt.Fprintf(b, ",%s=", p.Key)
		p.Val.sig(b)
	}
	b.WriteByte(')')
}
func (o *CreateRel) child() Op { return o.Input }

// SetProps updates properties of the node or relationship in Col.
type SetProps struct {
	Input Op
	Col   int
	Props []PropSpec
}

func (o *SetProps) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|SetProps(%d", o.Col)
	for _, p := range o.Props {
		fmt.Fprintf(b, ",%s=", p.Key)
		p.Val.sig(b)
	}
	b.WriteByte(')')
}
func (o *SetProps) child() Op { return o.Input }

// Delete tombstones the node (detached) or relationship in Col.
type Delete struct {
	Input Op
	Col   int
}

func (o *Delete) sig(b *strings.Builder) {
	o.Input.sig(b)
	fmt.Fprintf(b, "|Delete(%d)", o.Col)
}
func (o *Delete) child() Op { return o.Input }
