package plan

import (
	"math"
	"strings"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

func intCol(i int) *Col { return &Col{Idx: i, Name: "c", T: types.TInt} }
func boolConst(b bool) *Const {
	return &Const{V: value.Bool(b), T: types.TBool}
}

func evalOn(t *testing.T, e Expr, row value.Row) value.Value {
	t.Helper()
	v, err := e.Eval(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestColEval(t *testing.T) {
	row := value.Row{value.Int(7), value.String_("x")}
	if v := evalOn(t, intCol(0), row); v.I != 7 {
		t.Fatalf("col eval %v", v)
	}
	if _, err := intCol(5).Eval(nil, row); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if intCol(0).Type() != types.TInt {
		t.Fatal("type lost")
	}
}

func TestBinaryArithNullPropagation(t *testing.T) {
	e := &Binary{Op: "+", Kind: BinArith, L: intCol(0), R: intCol(1), T: types.TInt}
	v := evalOn(t, e, value.Row{value.Int(1), value.Null()})
	if !v.IsNull() {
		t.Fatalf("1 + NULL = %v, want NULL", v)
	}
	v = evalOn(t, e, value.Row{value.Int(1), value.Int(2)})
	if v.I != 3 {
		t.Fatalf("1 + 2 = %v", v)
	}
}

func TestBinaryCompareNullIsFalse(t *testing.T) {
	e := &Binary{Op: "=", Kind: BinCompare, L: intCol(0), R: intCol(1), T: types.TBool}
	v := evalOn(t, e, value.Row{value.Int(1), value.Null()})
	if v.Kind != value.KindBool || v.B {
		t.Fatalf("1 = NULL evaluated to %v, want FALSE", v)
	}
}

func TestBinaryLogic(t *testing.T) {
	and := &Binary{Op: "AND", Kind: BinLogic, L: boolConst(true), R: boolConst(false), T: types.TBool}
	if v := evalOn(t, and, nil); v.B {
		t.Fatal("true AND false")
	}
	or := &Binary{Op: "OR", Kind: BinLogic, L: boolConst(true), R: boolConst(false), T: types.TBool}
	if v := evalOn(t, or, nil); !v.B {
		t.Fatal("true OR false")
	}
	// NULL behaves as FALSE in logic.
	nullOr := &Binary{Op: "OR", Kind: BinLogic, L: &Const{V: value.Null(), T: types.TBool}, R: boolConst(true), T: types.TBool}
	if v := evalOn(t, nullOr, nil); !v.B {
		t.Fatal("NULL OR true")
	}
}

func TestNotAndNeg(t *testing.T) {
	if v := evalOn(t, &Not{E: boolConst(false)}, nil); !v.B {
		t.Fatal("NOT false")
	}
	neg := &Neg{E: intCol(0), T: types.TInt}
	if v := evalOn(t, neg, value.Row{value.Int(5)}); v.I != -5 {
		t.Fatalf("-5 = %v", v)
	}
	negd := &Neg{E: &Col{Idx: 0, T: types.TDouble}, T: types.TDouble}
	if v := evalOn(t, negd, value.Row{value.Double(2.5)}); v.D != -2.5 {
		t.Fatalf("-2.5 = %v", v)
	}
	negv := &Neg{E: &Col{Idx: 0, T: types.TVector(types.UnknownDim)}, T: types.TVector(types.UnknownDim)}
	if v := evalOn(t, negv, value.Row{value.Vector(linalg.VectorOf(1, -2))}); !v.Vec.Equal(linalg.VectorOf(-1, 2)) {
		t.Fatalf("-vec = %v", v)
	}
	negm := &Neg{E: &Col{Idx: 0, T: types.TMatrix(types.UnknownDim, types.UnknownDim)}, T: types.TMatrix(types.UnknownDim, types.UnknownDim)}
	if v := evalOn(t, negm, value.Row{value.Matrix(linalg.Identity(2))}); v.Mat.At(0, 0) != -1 {
		t.Fatalf("-mat = %v", v)
	}
	// Negating NULL stays NULL.
	if v := evalOn(t, neg, value.Row{value.Null()}); !v.IsNull() {
		t.Fatalf("-NULL = %v", v)
	}
	// Negating a string is a runtime error.
	if _, err := (&Neg{E: &Col{Idx: 0, T: types.TString}, T: types.TDouble}).Eval(nil, value.Row{value.String_("x")}); err == nil {
		t.Fatal("negated a string")
	}
}

func TestCallEvalAndNullShortCircuit(t *testing.T) {
	fn, _ := builtins.Lookup("sqrt")
	call := &Call{Fn: fn, Args: []Expr{&Col{Idx: 0, T: types.TDouble}}, T: types.TDouble}
	if v := evalOn(t, call, value.Row{value.Double(9)}); v.D != 3 {
		t.Fatalf("sqrt(9) = %v", v)
	}
	if v := evalOn(t, call, value.Row{value.Null()}); !v.IsNull() {
		t.Fatalf("sqrt(NULL) = %v, want NULL", v)
	}
}

func TestColsUsedAndRemap(t *testing.T) {
	fn, _ := builtins.Lookup("pow")
	e := &Binary{
		Op: "+", Kind: BinArith, T: types.TDouble,
		L: &Call{Fn: fn, Args: []Expr{&Col{Idx: 3, T: types.TDouble}, &Col{Idx: 1, T: types.TDouble}}, T: types.TDouble},
		R: &Neg{E: &Not{E: boolConst(true)}, T: types.TDouble},
	}
	used := ColsUsed(e)
	if len(used) != 2 || used[0] != 1 || used[1] != 3 {
		t.Fatalf("cols used %v", used)
	}
	remapped, err := Remap(e, map[int]int{1: 0, 3: 1})
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	used = ColsUsed(remapped)
	if len(used) != 2 || used[0] != 0 || used[1] != 1 {
		t.Fatalf("remapped cols %v", used)
	}
	// Remap reports a missing mapping as an error, not a panic.
	if _, err := Remap(e, map[int]int{1: 0}); err == nil {
		t.Fatal("Remap with missing mapping did not error")
	}
}

func TestExprStrings(t *testing.T) {
	fn, _ := builtins.Lookup("sqrt")
	cases := map[Expr]string{
		intCol(2): "#2:c",
		&Const{V: value.Double(1.5), T: types.TDouble}:               "1.5",
		&Binary{Op: "*", Kind: BinArith, L: intCol(0), R: intCol(1)}: "(#0:c * #1:c)",
		&Not{E: boolConst(true)}:                                     "NOT true",
		&Neg{E: intCol(0), T: types.TInt}:                            "-#0:c",
		&Call{Fn: fn, Args: []Expr{intCol(0)}, T: types.TDouble}:     "sqrt(#0:c)",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestExplainCoversAllNodes(t *testing.T) {
	meta := catalog.NewTableMeta("t", catalog.Schema{Cols: []catalog.Column{{Name: "a", Type: types.TInt}}}, 5)
	scan := &Scan{Table: meta, Alias: "x", Out: Schema{{Name: "a", T: types.TInt}}}
	spec, _ := builtins.LookupAgg("count")
	tree := &Limit{
		N: 3,
		Input: &Sort{
			Keys: []OrderKey{{Col: 0, Desc: true}},
			Input: &Project{
				Out:   Schema{{Name: "a", T: types.TInt}},
				Exprs: []Expr{intCol(0)},
				Input: &Filter{
					Pred: &Binary{Op: ">", Kind: BinCompare, L: intCol(0), R: &Const{V: value.Int(0), T: types.TInt}, T: types.TBool},
					Input: &Agg{
						GroupBy: []Expr{intCol(0)},
						Aggs:    []AggCall{{Spec: spec, T: types.TInt}},
						Out:     Schema{{Name: "a", T: types.TInt}, {Name: "n", T: types.TInt}},
						Input: &Join{
							L: scan, R: scan,
							LKeys: []Expr{intCol(0)}, RKeys: []Expr{intCol(0)},
							Residual: []Expr{boolConst(true)},
							Out:      Schema{{Name: "a", T: types.TInt}, {Name: "a", T: types.TInt}},
						},
					},
				},
			},
		},
	}
	text := Explain(tree)
	for _, want := range []string{"Limit 3", "Sort", "Project", "Filter", "Aggregate", "HashJoin", "Scan t AS x", "count(*)", "filter ["} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	// Cross, MultiJoin, OneRow branches.
	cross := &Cross{L: scan, R: scan, Residual: []Expr{boolConst(true)}, Out: Schema{}}
	if !strings.Contains(Explain(cross), "CrossJoin") {
		t.Error("cross join missing")
	}
	mj := &MultiJoin{Inputs: []Node{scan, &OneRow{}}, Conjuncts: []Expr{boolConst(true)}, Out: Schema{}}
	text = Explain(mj)
	if !strings.Contains(text, "MultiJoin") || !strings.Contains(text, "OneRow") {
		t.Errorf("multijoin explain:\n%s", text)
	}
}

func TestSchemaHelpersPlan(t *testing.T) {
	s := Schema{{Name: "a", T: types.TInt}, {Name: "b", T: types.TVector(types.KnownDim(3))}}
	if s.String() != "(a INTEGER, b VECTOR[3])" {
		t.Fatalf("schema %s", s)
	}
	ts := s.Types()
	if len(ts) != 2 || ts[1].String() != "VECTOR[3]" {
		t.Fatalf("types %v", ts)
	}
}

// TestSameExpr: column references and calls compare structurally; every
// other shape, subqueries included, is conservatively different.
func TestSameExpr(t *testing.T) {
	tr, _ := builtins.Lookup("trans_matrix")
	inv, _ := builtins.Lookup("matrix_inverse")
	call := func(fn *builtins.Builtin, arg Expr) *Call { return &Call{Fn: fn, Args: []Expr{arg}} }
	sub := &ScalarSubquery{}
	for _, c := range []struct {
		a, b Expr
		want bool
	}{
		{intCol(0), intCol(0), true},
		{intCol(0), intCol(1), false},
		{call(tr, intCol(2)), call(tr, intCol(2)), true},
		{call(tr, intCol(2)), call(inv, intCol(2)), false},
		{call(tr, intCol(2)), call(tr, intCol(3)), false},
		{call(tr, intCol(2)), intCol(2), false},
		{sub, sub, false},
		{boolConst(true), boolConst(true), false},
	} {
		if got := SameExpr(c.a, c.b); got != c.want {
			t.Errorf("SameExpr(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestKey: Key equates exactly the expressions that compute the same value,
// including ones String prints alike.
func TestKey(t *testing.T) {
	tr, _ := builtins.Lookup("trans_matrix")
	plus := func(r *Const, typ types.T) *Binary {
		return &Binary{Op: "+", Kind: BinArith, L: intCol(0), R: r, T: typ}
	}
	one := &Const{V: value.Int(1), T: types.TInt}
	oneD := &Const{V: value.Double(1), T: types.TDouble}
	zero := &Const{V: value.Double(0), T: types.TDouble}
	negZero := &Const{V: value.Double(math.Copysign(0, -1)), T: types.TDouble}
	sub1, sub2 := &ScalarSubquery{T: types.TDouble}, &ScalarSubquery{T: types.TDouble}
	for _, c := range []struct {
		a, b Expr
		want bool
	}{
		{plus(one, types.TInt), plus(&Const{V: value.Int(1), T: types.TInt}, types.TInt), true},
		{plus(one, types.TInt), plus(oneD, types.TDouble), false},
		{zero, negZero, false},
		{&Call{Fn: tr, Args: []Expr{intCol(2)}}, &Call{Fn: tr, Args: []Expr{&Col{Idx: 2, Name: "other", T: types.TInt}}}, true},
		{sub1, sub1, true},
		{sub1, sub2, false},
		{&Binary{Op: "*", Kind: BinArith, L: intCol(0), R: sub1, T: types.TDouble},
			&Binary{Op: "*", Kind: BinArith, L: intCol(0), R: sub2, T: types.TDouble}, false},
		{&Neg{E: intCol(0), T: types.TInt}, &Not{E: intCol(0)}, false},
	} {
		if got := Key(c.a) == Key(c.b); got != c.want {
			t.Errorf("Key(%s) == Key(%s) is %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestRemapWith: replaced subtrees are not remapped, the rest are, and an
// unknown expression type stays an error.
func TestRemapWith(t *testing.T) {
	fn, _ := builtins.Lookup("sqrt")
	inner := &Call{Fn: fn, Args: []Expr{intCol(5)}, T: types.TDouble}
	e := &Binary{Op: "+", Kind: BinArith, L: inner, R: intCol(1), T: types.TDouble}
	if got := Children(e); len(got) != 2 || got[0] != inner {
		t.Fatalf("Children = %v", got)
	}
	out, err := RemapWith(e, map[int]int{1: 0}, func(x Expr) (Expr, error) {
		if x == inner {
			return &Col{Idx: 1, Name: "sq", T: types.TDouble}, nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "(#1:sq + #0:c)" {
		t.Fatalf("RemapWith = %s", got)
	}
	if _, err := RemapWith(&Binary{Op: "+", L: &unknownExpr{}, R: intCol(1)}, map[int]int{1: 0}, nil); err == nil {
		t.Fatal("unknown expression type remapped without error")
	}
}

type unknownExpr struct{ Col }
