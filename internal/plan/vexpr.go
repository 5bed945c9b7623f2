package plan

import (
	"fmt"

	"relalg/internal/builtins"
	"relalg/internal/value"
)

// BatchSource is the executor-side view of a column batch that EvalVec
// evaluates against: per-column access for the vectorized fast paths and
// per-row access for the scalar fallback. Columns returned by BatchCol are
// read-only and may be shared between expressions.
type BatchSource interface {
	// BatchLen is the number of lanes in the window (live and dead).
	BatchLen() int
	// BatchCol returns column idx of the window.
	BatchCol(idx int) (*value.Col, error)
	// BatchRow materializes lane i as a row for the scalar fallback.
	BatchRow(i int) value.Row
}

// EvalVec evaluates e over every lane of src named by sel (all lanes when sel
// is nil), returning a column with those lanes set; unselected lanes are
// unspecified. Typed fast paths cover column refs, constants, arithmetic,
// comparison, and logic over homogeneous columns; everything else degrades to
// element-at-a-time evaluation with exactly the row evaluator's semantics, so
// a successful query computes bit-identical values either way. The returned
// column is read-only and may alias src's storage (a bare column reference is
// passed through without copying).
func EvalVec(ec *EvalCtx, e Expr, src BatchSource, sel []int32) (*value.Col, error) {
	n := src.BatchLen()
	switch x := e.(type) {
	case *Col:
		if x.Idx < 0 {
			return nil, fmt.Errorf("plan: column index %d out of range", x.Idx)
		}
		return src.BatchCol(x.Idx)
	case *Const:
		out := &value.Col{}
		out.Fill(x.V, n)
		return out, nil
	case *Binary:
		if out, ok, err := evalVecConstOperand(ec, x, src, n, sel); ok {
			return out, err
		}
		lc, err := EvalVec(ec, x.L, src, sel)
		if err != nil {
			return nil, err
		}
		rc, err := EvalVec(ec, x.R, src, sel)
		if err != nil {
			return nil, err
		}
		return evalVecBinary(ec, x, lc, rc, n, sel)
	case *Not:
		inner, err := EvalVec(ec, x.E, src, sel)
		if err != nil {
			return nil, err
		}
		b := boolLanes(inner, n, sel, nil)
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		builtins.VecNot(out.B, b, sel)
		return out, nil
	case *Neg:
		inner, err := EvalVec(ec, x.E, src, sel)
		if err != nil {
			return nil, err
		}
		return evalVecNeg(inner, n, sel)
	case *Call:
		args := make([]*value.Col, len(x.Args))
		for i, a := range x.Args {
			c, err := EvalVec(ec, a, src, sel)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		out := &value.Col{Generic: true, Any: make([]value.Value, n)}
		scratch := make([]value.Value, len(args))
		apply := func(i int) error {
			for j, c := range args {
				v := c.Value(i)
				if v.IsNull() {
					out.Any[i] = value.Null()
					return nil
				}
				scratch[j] = v
			}
			v, err := x.Fn.Eval(ec, scratch)
			if err != nil {
				return err
			}
			out.Any[i] = v
			return nil
		}
		if err := forLanes(n, sel, apply); err != nil {
			return nil, err
		}
		out.Specialize(n, sel)
		return out, nil
	}
	// Row-at-a-time fallback for anything else (e.g. unresolved subqueries):
	// evaluate the scalar tree per lane.
	out := &value.Col{Generic: true, Any: make([]value.Value, n)}
	err := forLanes(n, sel, func(i int) error {
		v, err := e.Eval(ec, src.BatchRow(i))
		if err != nil {
			return err
		}
		out.Any[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Specialize(n, sel)
	return out, nil
}

// flippedCmp maps a comparison op to the one that gives the same result
// with its operands swapped; the NaN rules of <= and >= swap with them.
var flippedCmp = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// evalVecConstOperand evaluates a numeric comparison or arithmetic whose
// operand is a numeric constant without broadcasting the constant into a
// column: comparisons with the constant on either side, arithmetic with it on
// the right. ok is false when the expression does not have that shape, and
// then nothing has been evaluated; the constant-free operand is evaluated
// exactly once either way, so its errors surface as on the general path.
func evalVecConstOperand(ec *EvalCtx, b *Binary, src BatchSource, n int, sel []int32) (*value.Col, bool, error) {
	op, operand := b.Op, b.L
	k, isConst := b.R.(*Const)
	if !isConst && b.Kind == BinCompare {
		k, isConst = b.L.(*Const)
		op, operand = flippedCmp[b.Op], b.R
	}
	if !isConst || !k.V.IsNumeric() || (b.Kind != BinCompare && b.Kind != BinArith) {
		return nil, false, nil
	}
	c, err := EvalVec(ec, operand, src, sel)
	if err != nil {
		return nil, true, err
	}
	if !c.IsNumeric() {
		// Broadcast after all: the general path handles generic lanes.
		kc := &value.Col{}
		kc.Fill(k.V, n)
		if operand == b.L {
			out, err := evalVecBinary(ec, b, c, kc, n, sel)
			return out, true, err
		}
		out, err := evalVecBinary(ec, b, kc, c, n, sel)
		return out, true, err
	}
	kf, _ := k.V.AsDouble()
	if b.Kind == BinCompare {
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		if c.Kind == value.KindInt {
			err = builtins.VecCmpConst(op, out.B, c.I, kf, sel)
		} else {
			err = builtins.VecCmpConst(op, out.B, c.F, kf, sel)
		}
		return out, true, err
	}
	if c.Kind == value.KindInt && k.V.Kind == value.KindInt {
		out := &value.Col{Kind: value.KindInt, I: make([]int64, n)}
		return out, true, builtins.VecArithConst(op, out.I, c.I, k.V.I, sel)
	}
	lf, _ := c.AsFloats(nil, sel)
	out := &value.Col{Kind: value.KindDouble, F: make([]float64, n)}
	return out, true, builtins.VecArithConst(op, out.F, lf, kf, sel)
}

func forLanes(n int, sel []int32, f func(i int) error) error {
	if sel == nil {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range sel {
		if err := f(int(i)); err != nil {
			return err
		}
	}
	return nil
}

func evalVecBinary(ec *EvalCtx, b *Binary, lc, rc *value.Col, n int, sel []int32) (*value.Col, error) {
	switch b.Kind {
	case BinArith:
		if lc.Kind == value.KindInt && rc.Kind == value.KindInt && !lc.Generic && !rc.Generic {
			out := &value.Col{Kind: value.KindInt, I: make([]int64, n)}
			if err := builtins.VecArithInt(b.Op, out.I, lc.I, rc.I, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if lc.IsNumeric() && rc.IsNumeric() {
			lf, _ := lc.AsFloats(nil, sel)
			rf, _ := rc.AsFloats(nil, sel)
			out := &value.Col{Kind: value.KindDouble, F: make([]float64, n)}
			if err := builtins.VecArithFloat(b.Op, out.F, lf, rf, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		out := &value.Col{Generic: true, Any: make([]value.Value, n)}
		err := forLanes(n, sel, func(i int) error {
			l, r := lc.Value(i), rc.Value(i)
			if l.IsNull() || r.IsNull() {
				out.Any[i] = value.Null()
				return nil
			}
			v, err := builtins.Arith(ec, b.Op, l, r)
			if err != nil {
				return err
			}
			out.Any[i] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Specialize(n, sel)
		return out, nil
	case BinCompare:
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		if lc.Kind == value.KindInt && rc.Kind == value.KindInt && !lc.Generic && !rc.Generic {
			if err := builtins.VecCmpInt(b.Op, out.B, lc.I, rc.I, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if lc.IsNumeric() && rc.IsNumeric() {
			lf, _ := lc.AsFloats(nil, sel)
			rf, _ := rc.AsFloats(nil, sel)
			if err := builtins.VecCmpFloat(b.Op, out.B, lf, rf, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if !lc.Generic && !rc.Generic && lc.Kind == value.KindString && rc.Kind == value.KindString {
			if err := builtins.VecCmpString(b.Op, out.B, lc.S, rc.S, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		if !lc.Generic && !rc.Generic && lc.Kind == value.KindBool && rc.Kind == value.KindBool {
			if err := builtins.VecCmpBool(b.Op, out.B, lc.B, rc.B, sel); err != nil {
				return nil, err
			}
			return out, nil
		}
		err := forLanes(n, sel, func(i int) error {
			l, r := lc.Value(i), rc.Value(i)
			if l.IsNull() || r.IsNull() {
				out.B[i] = false
				return nil
			}
			v, err := builtins.Compare(b.Op, l, r)
			if err != nil {
				return err
			}
			out.B[i] = v.Kind == value.KindBool && v.B
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	case BinLogic:
		lb := boolLanes(lc, n, sel, nil)
		rb := boolLanes(rc, n, sel, nil)
		out := &value.Col{Kind: value.KindBool, B: make([]bool, n)}
		if err := builtins.VecLogic(b.Op, out.B, lb, rb, sel); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("plan: unknown binary kind %d", b.Kind)
}

// boolLanes coerces a column to the two-valued truthiness the row evaluator
// applies to logic operands: true iff the lane is a BOOLEAN true.
func boolLanes(c *value.Col, n int, sel []int32, scratch []bool) []bool {
	if !c.Generic && c.Kind == value.KindBool {
		return c.B
	}
	if cap(scratch) < n {
		scratch = make([]bool, n)
	}
	scratch = scratch[:n]
	if !c.Generic {
		// Homogeneous non-boolean column: every lane coerces to false.
		for i := range scratch {
			scratch[i] = false
		}
		return scratch
	}
	if sel == nil {
		for i := 0; i < n; i++ {
			v := c.Any[i]
			scratch[i] = v.Kind == value.KindBool && v.B
		}
	} else {
		for _, i := range sel {
			v := c.Any[i]
			scratch[i] = v.Kind == value.KindBool && v.B
		}
	}
	return scratch
}

func evalVecNeg(inner *value.Col, n int, sel []int32) (*value.Col, error) {
	if !inner.Generic {
		switch inner.Kind {
		case value.KindInt:
			out := &value.Col{Kind: value.KindInt, I: make([]int64, n)}
			if sel == nil {
				for i, x := range inner.I {
					out.I[i] = -x
				}
			} else {
				for _, i := range sel {
					out.I[i] = -inner.I[i]
				}
			}
			return out, nil
		case value.KindDouble, value.KindLabeledScalar:
			// Negating a labeled scalar drops the label, as Neg.Eval does.
			out := &value.Col{Kind: value.KindDouble, F: make([]float64, n)}
			if sel == nil {
				for i, x := range inner.F {
					out.F[i] = -x
				}
			} else {
				for _, i := range sel {
					out.F[i] = -inner.F[i]
				}
			}
			return out, nil
		}
	}
	out := &value.Col{Generic: true, Any: make([]value.Value, n)}
	err := forLanes(n, sel, func(i int) error {
		v := inner.Value(i)
		if v.IsNull() {
			out.Any[i] = value.Null()
			return nil
		}
		switch v.Kind {
		case value.KindInt:
			out.Any[i] = value.Int(-v.I)
		case value.KindDouble, value.KindLabeledScalar:
			out.Any[i] = value.Double(-v.D)
		case value.KindVector:
			out.Any[i] = value.Vector(v.Vec.Scale(-1))
		case value.KindMatrix:
			out.Any[i] = value.Matrix(v.Mat.Scale(-1))
		default:
			return fmt.Errorf("plan: cannot negate %s", v.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Specialize(n, sel)
	return out, nil
}
