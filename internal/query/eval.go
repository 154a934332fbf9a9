package query

import (
	"fmt"

	"poseidon/internal/core"
	"poseidon/internal/storage"
)

// evalFn is a compiled-at-prepare-time expression evaluator. The
// interpreter composes these through indirect calls; the JIT backend
// instead specializes expressions straight into the pipeline body.
type evalFn func(ctx *Ctx, t Tuple) (storage.Value, error)

// predFn evaluates a boolean predicate.
type predFn func(ctx *Ctx, t Tuple) (bool, error)

func buildExpr(e Expr, c *Ctx) (evalFn, error) {
	switch x := e.(type) {
	case *Const:
		v, err := c.E.EncodeValue(x.Val)
		if err != nil {
			return nil, err
		}
		return func(*Ctx, Tuple) (storage.Value, error) { return v, nil }, nil

	case *Param:
		name := x.Name
		return func(ctx *Ctx, _ Tuple) (storage.Value, error) {
			v, ok := ctx.Params[name]
			if !ok {
				return storage.Value{}, fmt.Errorf("query: unbound parameter $%s", name)
			}
			return v, nil
		}, nil

	case *Prop:
		ref := c.code(x.Key)
		col := x.Col
		return func(ctx *Ctx, t Tuple) (storage.Value, error) {
			if col >= len(t) {
				return storage.Value{}, fmt.Errorf("%w: prop column %d out of range", ErrBadPlan, col)
			}
			code, ok := ref.get(ctx.E)
			if !ok {
				return storage.Value{}, nil
			}
			switch t[col].Kind {
			case DNode:
				if v, ok := t[col].Node.Prop(uint32(code)); ok {
					return v, nil
				}
			case DRel:
				if v, ok := t[col].Rel.Prop(uint32(code)); ok {
					return v, nil
				}
			}
			return storage.Value{}, nil
		}, nil

	case *IDOf:
		col := x.Col
		return func(_ *Ctx, t Tuple) (storage.Value, error) {
			if col >= len(t) {
				return storage.Value{}, fmt.Errorf("%w: id column %d out of range", ErrBadPlan, col)
			}
			switch t[col].Kind {
			case DNode:
				return storage.IntValue(int64(t[col].Node.ID)), nil
			case DRel:
				return storage.IntValue(int64(t[col].Rel.ID)), nil
			default:
				return t[col].Val, nil
			}
		}, nil

	case *LabelOf:
		col := x.Col
		return func(_ *Ctx, t Tuple) (storage.Value, error) {
			if col >= len(t) {
				return storage.Value{}, fmt.Errorf("%w: label column %d out of range", ErrBadPlan, col)
			}
			switch t[col].Kind {
			case DNode:
				return storage.StringValue(uint64(t[col].Node.Rec.Label)), nil
			case DRel:
				return storage.StringValue(uint64(t[col].Rel.Rec.Label)), nil
			default:
				return storage.Value{}, nil
			}
		}, nil

	case *Cmp, *And, *Or, *Not, *HasLabel:
		pred, err := buildPred(e, c)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx, t Tuple) (storage.Value, error) {
			b, err := pred(ctx, t)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.BoolValue(b), nil
		}, nil

	default:
		return nil, fmt.Errorf("%w: unknown expression %T", ErrBadPlan, e)
	}
}

func buildPred(e Expr, c *Ctx) (predFn, error) {
	switch x := e.(type) {
	case *Cmp:
		l, err := buildExpr(x.L, c)
		if err != nil {
			return nil, err
		}
		r, err := buildExpr(x.R, c)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(ctx *Ctx, t Tuple) (bool, error) {
			lv, err := l(ctx, t)
			if err != nil {
				return false, err
			}
			rv, err := r(ctx, t)
			if err != nil {
				return false, err
			}
			return CompareValues(ctx.E, op, lv, rv)
		}, nil

	case *And:
		l, err := buildPred(x.L, c)
		if err != nil {
			return nil, err
		}
		r, err := buildPred(x.R, c)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx, t Tuple) (bool, error) {
			lb, err := l(ctx, t)
			if err != nil || !lb {
				return false, err
			}
			return r(ctx, t)
		}, nil

	case *Or:
		l, err := buildPred(x.L, c)
		if err != nil {
			return nil, err
		}
		r, err := buildPred(x.R, c)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx, t Tuple) (bool, error) {
			lb, err := l(ctx, t)
			if err != nil || lb {
				return lb, err
			}
			return r(ctx, t)
		}, nil

	case *Not:
		inner, err := buildPred(x.X, c)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx, t Tuple) (bool, error) {
			b, err := inner(ctx, t)
			return !b, err
		}, nil

	case *HasLabel:
		ref := c.code(x.Label)
		col := x.Col
		return func(ctx *Ctx, t Tuple) (bool, error) {
			if col >= len(t) {
				return false, fmt.Errorf("%w: hasLabel column %d out of range", ErrBadPlan, col)
			}
			code, ok := ref.get(ctx.E)
			if !ok {
				return false, nil
			}
			switch t[col].Kind {
			case DNode:
				return uint64(t[col].Node.Rec.Label) == code, nil
			case DRel:
				return uint64(t[col].Rel.Rec.Label) == code, nil
			default:
				return false, nil
			}
		}, nil

	default:
		// A bare expression used as a predicate: truthiness of its value.
		fn, err := buildExpr(e, c)
		if err != nil {
			return nil, err
		}
		return func(ctx *Ctx, t Tuple) (bool, error) {
			v, err := fn(ctx, t)
			if err != nil {
				return false, err
			}
			return v.Type == storage.TypeBool && v.Bool(), nil
		}, nil
	}
}

// CompareValues compares two typed values under op. Numeric types are
// coerced; strings compare by dictionary code for equality and are
// decoded for ordering (codes are assigned in insertion order, not
// lexicographically).
func CompareValues(e *core.Engine, op CmpOp, l, r storage.Value) (bool, error) {
	if l.Type == storage.TypeNil || r.Type == storage.TypeNil {
		// SQL-ish semantics: nil compares equal only to nil under Eq.
		switch op {
		case Eq:
			return l.Type == r.Type, nil
		case Ne:
			return l.Type != r.Type, nil
		default:
			return false, nil
		}
	}
	c, err := orderValues(e, l, r)
	if err != nil {
		return false, err
	}
	switch op {
	case Eq:
		return c == 0, nil
	case Ne:
		return c != 0, nil
	case Lt:
		return c < 0, nil
	case Le:
		return c <= 0, nil
	case Gt:
		return c > 0, nil
	default:
		return c >= 0, nil
	}
}

func orderValues(e *core.Engine, l, r storage.Value) (int, error) {
	lt, rt := l.Type, r.Type
	// Numeric coercion.
	if (lt == storage.TypeInt || lt == storage.TypeFloat) &&
		(rt == storage.TypeInt || rt == storage.TypeFloat) {
		var lf, rf float64
		if lt == storage.TypeInt {
			lf = float64(l.Int())
		} else {
			lf = l.Float()
		}
		if rt == storage.TypeInt {
			rf = float64(r.Int())
		} else {
			rf = r.Float()
		}
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if lt != rt {
		return 0, fmt.Errorf("query: cannot compare %v with %v", lt, rt)
	}
	switch lt {
	case storage.TypeBool:
		lb, rb := l.Bool(), r.Bool()
		switch {
		case lb == rb:
			return 0, nil
		case !lb:
			return -1, nil
		default:
			return 1, nil
		}
	case storage.TypeString:
		if l.Code() == r.Code() {
			return 0, nil
		}
		ls, err := e.Dict().Decode(l.Code())
		if err != nil {
			return 0, err
		}
		rs, err := e.Dict().Decode(r.Code())
		if err != nil {
			return 0, err
		}
		switch {
		case ls < rs:
			return -1, nil
		case ls > rs:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("query: cannot order values of type %v", lt)
	}
}
