// Package plan performs semantic analysis over parsed SQL — name
// resolution, type checking with dimension propagation through the templated
// built-in signatures — and produces the logical plan that internal/opt
// optimizes and internal/exec runs.
package plan

import (
	"fmt"
	"strings"

	"relalg/internal/builtins"
	"relalg/internal/types"
	"relalg/internal/value"
)

// EvalCtx is the per-query evaluation context threaded into every Eval.
// It aliases builtins.EvalCtx so the executor can hand one object to both
// expression trees and direct builtin calls; nil is always valid.
type EvalCtx = builtins.EvalCtx

// Expr is a type-checked expression evaluated against a row of its input
// relation. Expressions are pure and the context is read-only, so the
// optimizer may move, duplicate, and pre-evaluate them freely, and one plan
// may be evaluated by many queries concurrently.
type Expr interface {
	Type() types.T
	Eval(ec *EvalCtx, row value.Row) (value.Value, error)
	String() string
	// Walk visits this node and all children.
	Walk(fn func(Expr))
}

// Col references a column of the input relation by position.
type Col struct {
	Idx  int
	Name string
	T    types.T
}

// Type implements Expr.
func (c *Col) Type() types.T { return c.T }

// Eval implements Expr.
func (c *Col) Eval(_ *EvalCtx, row value.Row) (value.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return value.Null(), fmt.Errorf("plan: column index %d out of range for row of %d", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

func (c *Col) String() string     { return fmt.Sprintf("#%d:%s", c.Idx, c.Name) }
func (c *Col) Walk(fn func(Expr)) { fn(c) }

// Const is a literal value.
type Const struct {
	V value.Value
	T types.T
}

// Type implements Expr.
func (c *Const) Type() types.T { return c.T }

// Eval implements Expr.
func (c *Const) Eval(*EvalCtx, value.Row) (value.Value, error) { return c.V, nil }

func (c *Const) String() string     { return c.V.String() }
func (c *Const) Walk(fn func(Expr)) { fn(c) }

// BinKind classifies a Binary expression.
type BinKind uint8

// Binary expression kinds.
const (
	BinArith   BinKind = iota // + - * /
	BinCompare                // = <> < <= > >=
	BinLogic                  // AND OR
)

// Binary is a binary operation with SQL overloading: arithmetic follows the
// paper's element-wise/broadcast rules, comparisons yield BOOLEAN, and
// logic is two-valued with NULL treated as FALSE (sufficient for the
// paper's workloads; documented deviation from three-valued SQL).
type Binary struct {
	Op   string
	Kind BinKind
	L, R Expr
	T    types.T
}

// Type implements Expr.
func (b *Binary) Type() types.T { return b.T }

// Eval implements Expr.
func (b *Binary) Eval(ec *EvalCtx, row value.Row) (value.Value, error) {
	l, err := b.L.Eval(ec, row)
	if err != nil {
		return value.Null(), err
	}
	r, err := b.R.Eval(ec, row)
	if err != nil {
		return value.Null(), err
	}
	switch b.Kind {
	case BinArith:
		if l.IsNull() || r.IsNull() {
			return value.Null(), nil
		}
		return builtins.Arith(ec, b.Op, l, r)
	case BinCompare:
		if l.IsNull() || r.IsNull() {
			return value.Bool(false), nil
		}
		return builtins.Compare(b.Op, l, r)
	case BinLogic:
		lb := !l.IsNull() && l.Kind == value.KindBool && l.B
		rb := !r.IsNull() && r.Kind == value.KindBool && r.B
		if b.Op == "AND" {
			return value.Bool(lb && rb), nil
		}
		return value.Bool(lb || rb), nil
	}
	return value.Null(), fmt.Errorf("plan: unknown binary kind %d", b.Kind)
}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

func (b *Binary) Walk(fn func(Expr)) {
	fn(b)
	b.L.Walk(fn)
	b.R.Walk(fn)
}

// Not is logical negation.
type Not struct {
	E Expr
}

// Type implements Expr.
func (n *Not) Type() types.T { return types.TBool }

// Eval implements Expr.
func (n *Not) Eval(ec *EvalCtx, row value.Row) (value.Value, error) {
	v, err := n.E.Eval(ec, row)
	if err != nil {
		return value.Null(), err
	}
	b := !v.IsNull() && v.Kind == value.KindBool && v.B
	return value.Bool(!b), nil
}

func (n *Not) String() string     { return "NOT " + n.E.String() }
func (n *Not) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// Neg is arithmetic negation of a scalar, vector, or matrix.
type Neg struct {
	E Expr
	T types.T
}

// Type implements Expr.
func (n *Neg) Type() types.T { return n.T }

// Eval implements Expr.
func (n *Neg) Eval(ec *EvalCtx, row value.Row) (value.Value, error) {
	v, err := n.E.Eval(ec, row)
	if err != nil || v.IsNull() {
		return value.Null(), err
	}
	switch v.Kind {
	case value.KindInt:
		return value.Int(-v.I), nil
	case value.KindDouble, value.KindLabeledScalar:
		return value.Double(-v.D), nil
	case value.KindVector:
		return value.Vector(v.Vec.Scale(-1)), nil
	case value.KindMatrix:
		return value.Matrix(v.Mat.Scale(-1)), nil
	}
	return value.Null(), fmt.Errorf("plan: cannot negate %s", v.Kind)
}

func (n *Neg) String() string     { return "-" + n.E.String() }
func (n *Neg) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// Call invokes a scalar built-in.
type Call struct {
	Fn   *builtins.Builtin
	Args []Expr
	T    types.T
}

// Type implements Expr.
func (c *Call) Type() types.T { return c.T }

// Eval implements Expr.
func (c *Call) Eval(ec *EvalCtx, row value.Row) (value.Value, error) {
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(ec, row)
		if err != nil {
			return value.Null(), err
		}
		if v.IsNull() {
			return value.Null(), nil
		}
		args[i] = v
	}
	return c.Fn.Eval(ec, args)
}

func (c *Call) String() string {
	s := c.Fn.Name + "("
	for i, a := range c.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

func (c *Call) Walk(fn func(Expr)) {
	fn(c)
	for _, a := range c.Args {
		a.Walk(fn)
	}
}

// ScalarSubquery is an uncorrelated scalar subquery used as an expression.
// The engine pre-executes the inner plan and substitutes its single value
// (NULL for an empty result) before physical execution; reaching Eval means
// that substitution was skipped.
type ScalarSubquery struct {
	Plan Node
	T    types.T
}

// Type implements Expr.
func (s *ScalarSubquery) Type() types.T { return s.T }

// Eval implements Expr.
func (s *ScalarSubquery) Eval(*EvalCtx, value.Row) (value.Value, error) {
	return value.Null(), fmt.Errorf("plan: unresolved scalar subquery reached execution")
}

func (s *ScalarSubquery) String() string     { return "(subquery)" }
func (s *ScalarSubquery) Walk(fn func(Expr)) { fn(s) }

// SameExpr reports whether a and b are structurally the same column
// reference or the same function over the same arguments, so they evaluate
// to the same value on every row. It is conservative: any other expression
// shape compares unequal.
func SameExpr(a, b Expr) bool {
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && x.Idx == y.Idx
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !SameExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Key identifies e's structure: expressions with equal keys compute the same
// value on every row. Unlike String, it tells apart constants of different
// kinds or bits (1, 1.0 and -0.0 print alike), nodes of different types,
// and different scalar subqueries (each prints "(subquery)").
func Key(e Expr) string {
	var b strings.Builder
	appendKey(&b, e)
	return b.String()
}

func appendKey(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *Col:
		fmt.Fprintf(b, "#%d", x.Idx)
	case *Const:
		fmt.Fprintf(b, "const(%x)", value.AppendRow(nil, value.Row{x.V}))
	case *ScalarSubquery:
		fmt.Fprintf(b, "subquery(%p)", x)
	case *Binary:
		fmt.Fprintf(b, "%s%d(", x.Op, x.Kind)
		appendKey(b, x.L)
		b.WriteString(", ")
		appendKey(b, x.R)
		b.WriteString(")")
	case *Not:
		b.WriteString("NOT(")
		appendKey(b, x.E)
		b.WriteString(")")
	case *Neg:
		b.WriteString("-(")
		appendKey(b, x.E)
		b.WriteString(")")
	case *Call:
		b.WriteString(x.Fn.Name + "(")
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			appendKey(b, a)
		}
		b.WriteString(")")
	default:
		// An expression type this function does not know equals only itself.
		fmt.Fprintf(b, "%T(%p)", e, e)
	}
	fmt.Fprintf(b, ":%s", e.Type())
}

// Children returns e's direct subexpressions, the ones Walk visits after e.
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *Binary:
		return []Expr{x.L, x.R}
	case *Not:
		return []Expr{x.E}
	case *Neg:
		return []Expr{x.E}
	case *Call:
		return x.Args
	}
	return nil
}

// ColsUsed returns the sorted set of column indexes referenced by e.
func ColsUsed(e Expr) []int {
	seen := map[int]bool{}
	e.Walk(func(x Expr) {
		if c, ok := x.(*Col); ok {
			seen[c.Idx] = true
		}
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Remap returns a copy of e with every column index i replaced by mapping[i].
// It is how the optimizer rebinds expressions after join reordering and
// column pruning. A missing mapping or an unknown expression type indicates
// a planner bug; it is reported as an error so the engine can surface it to
// the query instead of crashing the process.
func Remap(e Expr, mapping map[int]int) (Expr, error) {
	return RemapWith(e, mapping, nil)
}

// RemapWith is Remap, except that a subtree for which repl returns a non-nil
// expression (or an error) is replaced by that result instead of remapped.
// A nil repl replaces nothing.
func RemapWith(e Expr, mapping map[int]int, repl func(Expr) (Expr, error)) (Expr, error) {
	if repl != nil {
		if r, err := repl(e); r != nil || err != nil {
			return r, err
		}
	}
	switch x := e.(type) {
	case *Col:
		idx, ok := mapping[x.Idx]
		if !ok {
			return nil, fmt.Errorf("plan: Remap has no mapping for column %d (%s)", x.Idx, x.Name)
		}
		return &Col{Idx: idx, Name: x.Name, T: x.T}, nil
	case *Const:
		return x, nil
	case *Binary:
		l, err := RemapWith(x.L, mapping, repl)
		if err != nil {
			return nil, err
		}
		r, err := RemapWith(x.R, mapping, repl)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, Kind: x.Kind, L: l, R: r, T: x.T}, nil
	case *Not:
		inner, err := RemapWith(x.E, mapping, repl)
		if err != nil {
			return nil, err
		}
		return &Not{E: inner}, nil
	case *Neg:
		inner, err := RemapWith(x.E, mapping, repl)
		if err != nil {
			return nil, err
		}
		return &Neg{E: inner, T: x.T}, nil
	case *Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := RemapWith(a, mapping, repl)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &Call{Fn: x.Fn, Args: args, T: x.T}, nil
	case *ScalarSubquery:
		// The inner plan references its own tables, never the outer row.
		return x, nil
	}
	return nil, fmt.Errorf("plan: Remap of unknown expression %T", e)
}
