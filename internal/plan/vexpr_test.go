package plan

import (
	"math"
	"testing"

	"relalg/internal/types"
	"relalg/internal/value"
)

// rowsSource is a plan.BatchSource over whole rows, gathering on demand.
type rowsSource struct{ rows []value.Row }

func (s rowsSource) BatchLen() int { return len(s.rows) }

func (s rowsSource) BatchCol(idx int) (*value.Col, error) {
	c := &value.Col{}
	c.Gather(s.rows, 0, len(s.rows), idx)
	return c, nil
}

func (s rowsSource) BatchRow(i int) value.Row { return s.rows[i] }

// sameValue compares two values bit for bit where floats are involved.
func sameValue(a, b value.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == value.KindDouble || a.Kind == value.KindLabeledScalar {
		return math.Float64bits(a.D) == math.Float64bits(b.D)
	}
	return a.Equal(b)
}

// TestEvalVecConstOperandMatchesEval pins the constant-operand fast path of
// EvalVec (no broadcast column) to the scalar evaluator, lane by lane: every
// comparison with the constant on either side, arithmetic with it on the
// right, over INT, DOUBLE (NaN, ±Inf, -0), LABELED SCALAR and mixed/NULL
// columns, including integer division by a zero constant.
func TestEvalVecConstOperandMatchesEval(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cols := map[string][]value.Value{
		"int":    {value.Int(3), value.Int(-7), value.Int(0), value.Int(1<<53 + 1)},
		"double": {value.Double(nan), value.Double(inf), value.Double(-inf), value.Double(math.Copysign(0, -1)), value.Double(1.5)},
		"label":  {value.LabeledScalar(2.5, 4), value.LabeledScalar(-1, 9)},
		"mixed":  {value.Int(2), value.Double(2.5), value.Null()},
	}
	consts := []value.Value{value.Int(2), value.Int(0), value.Int(1 << 53), value.Double(0), value.Double(-2.5), value.Double(inf)}
	constType := func(v value.Value) types.T {
		if v.Kind == value.KindInt {
			return types.TInt
		}
		return types.TDouble
	}
	for name, vals := range cols {
		rows := make([]value.Row, len(vals))
		for i, v := range vals {
			rows[i] = value.Row{v}
		}
		src := rowsSource{rows}
		col := &Col{Idx: 0, Name: name, T: types.TDouble}
		for _, kv := range consts {
			k := &Const{V: kv, T: constType(kv)}
			var exprs []*Binary
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				exprs = append(exprs,
					&Binary{Op: op, Kind: BinCompare, L: col, R: k, T: types.TBool},
					&Binary{Op: op, Kind: BinCompare, L: k, R: col, T: types.TBool})
			}
			for _, op := range []string{"+", "-", "*", "/"} {
				exprs = append(exprs, &Binary{Op: op, Kind: BinArith, L: col, R: k, T: types.TDouble})
			}
			for _, e := range exprs {
				got, vecErr := EvalVec(nil, e, src, nil)
				var rowErr error
				for i, r := range rows {
					want, err := e.Eval(nil, r)
					if err != nil {
						rowErr = err
						continue
					}
					if vecErr == nil && !sameValue(got.Value(i), want) {
						t.Errorf("%s lane %d: %s: vectorized %v, scalar %v", name, i, e, got.Value(i), want)
					}
				}
				if (vecErr == nil) != (rowErr == nil) {
					t.Errorf("%s: %s: vectorized error %v, scalar error %v", name, e, vecErr, rowErr)
				}
			}
		}
	}
}
