package cypher

import (
	"fmt"

	"poseidon/internal/core"
	"poseidon/internal/query"
)

// Compile translates a parsed statement into a graph-algebra plan. The
// planner picks an IndexScan for the first pattern node when a property
// equality matches an existing index (the paper's -i configurations),
// and falls back to a label scan plus filters otherwise.
func Compile(e *core.Engine, st *Stmt) (*query.Plan, error) {
	c := &compiler{e: e, env: map[string]int{}}
	return c.compile(st)
}

// Plan parses and compiles src in one step.
func Plan(e *core.Engine, src string) (*query.Plan, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(e, st)
}

type compiler struct {
	e    *core.Engine
	env  map[string]int // variable -> tuple column
	cols int            // current tuple width
}

func (c *compiler) bind(v string) {
	if v != "" {
		c.env[v] = c.cols
	}
}

func (c *compiler) col(v string) (int, error) {
	i, ok := c.env[v]
	if !ok {
		return 0, fmt.Errorf("cypher: unknown variable %q", v)
	}
	return i, nil
}

func litExpr(l Lit) query.Expr {
	switch l.Kind {
	case 'i':
		return &query.Const{Val: l.I}
	case 'f':
		return &query.Const{Val: l.F}
	case 's':
		return &query.Const{Val: l.S}
	case 'b':
		return &query.Const{Val: l.B}
	case 'p':
		return &query.Param{Name: l.S}
	default:
		return &query.Const{Val: nil}
	}
}

func (c *compiler) compile(st *Stmt) (*query.Plan, error) {
	var op query.Op

	if len(st.Match) > 0 {
		var err error
		op, err = c.compileMatch(st)
		if err != nil {
			return nil, err
		}
	}

	if st.Where != nil {
		pred, err := c.compileCond(st.Where)
		if err != nil {
			return nil, err
		}
		op = &query.Filter{Input: op, Pred: pred}
	}

	switch {
	case st.Return != nil:
		return c.compileReturn(op, st.Return)
	case st.Create != nil:
		return c.compileCreate(op, st.Create)
	case len(st.Set) > 0:
		return c.compileSet(op, st.Set)
	case len(st.Delete) > 0:
		return c.compileDelete(op, st.Delete)
	default:
		return nil, fmt.Errorf("cypher: statement has no action clause")
	}
}

// compileMatch builds the access path and traversal chain.
func (c *compiler) compileMatch(st *Stmt) (query.Op, error) {
	first := st.Match[0]
	op, err := c.accessPath(first)
	if err != nil {
		return nil, err
	}
	c.bind(first.Var)
	firstCol := c.cols
	c.cols++
	op = c.nodeResidualFilters(op, first, firstCol, true)

	prevCol := firstCol
	for i, rel := range st.Rels {
		// Expand from the previous node.
		var dir query.Dir
		var end query.End
		switch rel.Dir {
		case +1:
			dir, end = query.Out, query.Dst
		case -1:
			dir, end = query.In, query.Src
		default:
			dir, end = query.Both, query.Other
		}
		op = &query.Expand{Input: op, Col: prevCol, Dir: dir, RelLabel: rel.Label}
		relCol := c.cols
		c.cols++
		c.bind2(rel.Var, relCol)
		for _, pm := range rel.Props {
			op = &query.Filter{Input: op, Pred: &query.Cmp{
				Op: query.Eq, L: &query.Prop{Col: relCol, Key: pm.Key}, R: litExpr(pm.Val),
			}}
		}
		node := st.Match[i+1]
		op = &query.GetNode{Input: op, RelCol: relCol, End: end, OtherCol: prevCol, Label: node.Label}
		nodeCol := c.cols
		c.cols++
		c.bind2(node.Var, nodeCol)
		op = c.nodeResidualFilters(op, node, nodeCol, false)
		prevCol = nodeCol
	}

	// Extra comma-separated patterns: indexed lookups appended per tuple.
	for _, extra := range st.Extra {
		lookup, err := c.extraLookup(op, extra)
		if err != nil {
			return nil, err
		}
		op = lookup
		c.bind(extra.Var)
		extraCol := c.cols
		c.cols++
		op = c.nodeResidualFilters(op, extra, extraCol, true) // label/index handled inside
	}
	return op, nil
}

func (c *compiler) bind2(v string, col int) {
	if v != "" {
		c.env[v] = col
	}
}

// accessPath picks IndexScan or NodeScan for the first pattern node.
func (c *compiler) accessPath(n NodePattern) (query.Op, error) {
	if n.Label != "" {
		for _, pm := range n.Props {
			if _, ok := c.e.IndexFor(n.Label, pm.Key); ok {
				return &query.IndexScan{Label: n.Label, Key: pm.Key, Value: litExpr(pm.Val)}, nil
			}
		}
	}
	return &query.NodeScan{Label: n.Label}, nil
}

// nodeResidualFilters adds the property-equality filters not already
// enforced by the access path. A pattern node's label never needs one:
// the operator that binds the node — NodeScan, IndexScan, NodeLookup or
// GetNode — carries it.
func (c *compiler) nodeResidualFilters(op query.Op, n NodePattern, col int, viaAccess bool) query.Op {
	indexed := ""
	if viaAccess && n.Label != "" {
		for _, pm := range n.Props {
			if _, ok := c.e.IndexFor(n.Label, pm.Key); ok {
				indexed = pm.Key
				break
			}
		}
	}
	for _, pm := range n.Props {
		if pm.Key == indexed {
			continue // the access path already guarantees it
		}
		op = &query.Filter{Input: op, Pred: &query.Cmp{
			Op: query.Eq, L: &query.Prop{Col: col, Key: pm.Key}, R: litExpr(pm.Val),
		}}
	}
	return op
}

// extraLookup joins an additional single-node pattern via NodeLookup,
// which requires an index on one of its property equalities.
func (c *compiler) extraLookup(op query.Op, n NodePattern) (query.Op, error) {
	if n.Label == "" || len(n.Props) == 0 {
		return nil, fmt.Errorf("cypher: additional MATCH pattern (%s) needs a label and an indexed property (cartesian products are unsupported)", n.Var)
	}
	for _, pm := range n.Props {
		if _, ok := c.e.IndexFor(n.Label, pm.Key); ok {
			return &query.NodeLookup{Input: op, Label: n.Label, Key: pm.Key, Value: litExpr(pm.Val)}, nil
		}
	}
	return nil, fmt.Errorf("cypher: no index on (%s, %s); create one for multi-pattern MATCH", n.Label, n.Props[0].Key)
}

func (c *compiler) compileCond(cond Cond) (query.Expr, error) {
	switch x := cond.(type) {
	case *CmpCond:
		col, err := c.col(x.Var)
		if err != nil {
			return nil, err
		}
		var op query.CmpOp
		switch x.Op {
		case "=":
			op = query.Eq
		case "<>":
			op = query.Ne
		case "<":
			op = query.Lt
		case "<=":
			op = query.Le
		case ">":
			op = query.Gt
		case ">=":
			op = query.Ge
		}
		return &query.Cmp{Op: op, L: &query.Prop{Col: col, Key: x.Prop}, R: litExpr(x.Val)}, nil
	case *AndCond:
		l, err := c.compileCond(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileCond(x.R)
		if err != nil {
			return nil, err
		}
		return &query.And{L: l, R: r}, nil
	case *OrCond:
		l, err := c.compileCond(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileCond(x.R)
		if err != nil {
			return nil, err
		}
		return &query.Or{L: l, R: r}, nil
	case *NotCond:
		inner, err := c.compileCond(x.X)
		if err != nil {
			return nil, err
		}
		return &query.Not{X: inner}, nil
	default:
		return nil, fmt.Errorf("cypher: unsupported condition %T", cond)
	}
}

func (c *compiler) returnExpr(item ReturnItem) (query.Expr, error) {
	col, err := c.col(item.Var)
	if err != nil {
		return nil, err
	}
	if item.Prop == "" {
		return &query.IDOf{Col: col}, nil
	}
	return &query.Prop{Col: col, Key: item.Prop}, nil
}

func (c *compiler) compileReturn(op query.Op, r *ReturnClause) (*query.Plan, error) {
	if r.Count {
		return &query.Plan{Root: &query.CountAgg{Input: op}}, nil
	}
	if r.Distinct {
		if len(r.Items) != 1 {
			return nil, fmt.Errorf("cypher: DISTINCT supports exactly one return item")
		}
		key, err := c.returnExpr(r.Items[0])
		if err != nil {
			return nil, err
		}
		op = &query.Distinct{Input: op, Key: key}
	}
	if r.OrderBy != nil {
		key, err := c.returnExpr(*r.OrderBy)
		if err != nil {
			return nil, err
		}
		op = &query.OrderBy{Input: op, Key: key, Desc: r.Desc, Limit: r.Limit}
	} else if r.Limit > 0 {
		op = &query.Limit{Input: op, N: r.Limit}
	}
	cols := make([]query.Expr, len(r.Items))
	for i, item := range r.Items {
		ex, err := c.returnExpr(item)
		if err != nil {
			return nil, err
		}
		cols[i] = ex
	}
	return &query.Plan{Root: &query.Project{Input: op, Cols: cols}}, nil
}

func (c *compiler) compileCreate(op query.Op, cr *CreateClause) (*query.Plan, error) {
	for _, n := range cr.Nodes {
		specs := make([]query.PropSpec, len(n.Props))
		for i, pm := range n.Props {
			specs[i] = query.PropSpec{Key: pm.Key, Val: litExpr(pm.Val)}
		}
		op = &query.CreateNode{Input: op, Label: n.Label, Props: specs}
		c.bind(n.Var)
		c.cols++
	}
	for _, r := range cr.Rels {
		src, err := c.col(r.From)
		if err != nil {
			return nil, err
		}
		dst, err := c.col(r.To)
		if err != nil {
			return nil, err
		}
		specs := make([]query.PropSpec, len(r.Props))
		for i, pm := range r.Props {
			specs[i] = query.PropSpec{Key: pm.Key, Val: litExpr(pm.Val)}
		}
		op = &query.CreateRel{Input: op, SrcCol: src, DstCol: dst, Label: r.Label, Props: specs}
		c.cols++
	}
	return &query.Plan{Root: op}, nil
}

func (c *compiler) compileSet(op query.Op, items []SetItem) (*query.Plan, error) {
	// Group assignments by variable, preserving one SetProps per target.
	byVar := map[string][]query.PropSpec{}
	var order []string
	for _, it := range items {
		if _, seen := byVar[it.Var]; !seen {
			order = append(order, it.Var)
		}
		byVar[it.Var] = append(byVar[it.Var], query.PropSpec{Key: it.Prop, Val: litExpr(it.Val)})
	}
	for _, v := range order {
		col, err := c.col(v)
		if err != nil {
			return nil, err
		}
		op = &query.SetProps{Input: op, Col: col, Props: byVar[v]}
	}
	return &query.Plan{Root: op}, nil
}

func (c *compiler) compileDelete(op query.Op, vars []string) (*query.Plan, error) {
	for _, v := range vars {
		col, err := c.col(v)
		if err != nil {
			return nil, err
		}
		op = &query.Delete{Input: op, Col: col}
	}
	return &query.Plan{Root: op}, nil
}
