// Package opt is the cost-based query optimizer. Its distinguishing feature
// — the paper's §4 contribution — is that it is "linear-algebra aware": the
// byte widths of VECTOR and MATRIX columns and of expressions over them
// (inferred through the templated function signatures) drive the cost model,
// and projections that shrink tuples (such as an 80 MB matrix_multiply whose
// result is 8 KB) may be evaluated eagerly, as soon as a join subtree covers
// their inputs. Join enumeration is dynamic programming over relation
// subsets with cross products allowed, which is what lets the optimizer find
// the paper's π(S×R)⋈T plan.
package opt

import (
	"math"

	"relalg/internal/plan"
	"relalg/internal/types"
)

// Options control the optimizer; the zero value is NOT useful — use
// DefaultOptions.
type Options struct {
	// SizeAwareCosting uses inferred linear-algebra object sizes as column
	// widths. Disabling it (ablation A1) makes every column a fixed 16
	// bytes, blinding the optimizer exactly the way §4.1 describes.
	SizeAwareCosting bool
	// EagerProjection allows projection expressions to be computed as soon
	// as a join subtree covers their inputs (ablation A2).
	EagerProjection bool
	// DefaultDim is the assumed size of an unknown VECTOR[]/MATRIX[][]
	// dimension in the cost model.
	DefaultDim int
	// MaxDPRelations bounds exhaustive DP enumeration; larger join sets
	// fall back to a greedy pairing.
	MaxDPRelations int
	// Rewrites enables the algebraic rewrite pass that runs before join
	// ordering: matrix-chain reordering, outer-product recognition,
	// double-transpose elimination, filter pushdown through projections,
	// aggregate pushdown through linear LA functions, and
	// common-subexpression elimination. Disabling it (ablation; the
	// benchmark's baseline leg) leaves expressions exactly as the builder
	// produced them; fused-aggregation marking runs either way.
	Rewrites bool
	// Stats, when non-nil, counts the rewrite rules that fire; the benchmark
	// harness uses it to hard-fail sweeps where no rewrite applied.
	Stats *RewriteStats
}

// DefaultOptions enables the full §4 behaviour.
func DefaultOptions() Options {
	return Options{
		SizeAwareCosting: true,
		EagerProjection:  true,
		DefaultDim:       100,
		MaxDPRelations:   10,
		Rewrites:         true,
	}
}

// Optimizer rewrites logical plans.
type Optimizer struct {
	opts  Options
	stats *RewriteStats
}

// New returns an optimizer with the given options.
func New(opts Options) *Optimizer {
	if opts.DefaultDim <= 0 {
		opts.DefaultDim = 100
	}
	if opts.MaxDPRelations <= 0 {
		opts.MaxDPRelations = 10
	}
	st := opts.Stats
	if st == nil {
		st = &RewriteStats{}
	}
	return &Optimizer{opts: opts, stats: st}
}

// Optimize rewrites the plan: the algebraic rewrite pass (when enabled)
// normalizes the expression trees, then MultiJoin nodes become ordered
// Join/Cross trees with pushed-down filters and (optionally) eager
// projections, and every aggregate call gets its fusion decision.
func (o *Optimizer) Optimize(n plan.Node) (plan.Node, error) {
	if o.opts.Rewrites {
		rw, err := o.rewrite(n)
		if err != nil {
			return nil, err
		}
		n = rw
	}
	return o.optimizeNode(n)
}

// optimizeNode is the join-ordering pass; the rewrite pass (when enabled)
// already ran over the whole tree, so internal recursion re-enters here.
func (o *Optimizer) optimizeNode(n plan.Node) (plan.Node, error) {
	switch x := n.(type) {
	case *plan.Project:
		if mj, ok := x.Input.(*plan.MultiJoin); ok {
			node, rewritten, err := o.planMultiJoin(mj, x.Exprs)
			if err != nil {
				return nil, err
			}
			return &plan.Project{Input: node, Exprs: rewritten, Out: x.Out}, nil
		}
		in, err := o.optimizeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &plan.Project{Input: in, Exprs: x.Exprs, Out: x.Out}, nil
	case *plan.Agg:
		if mj, ok := x.Input.(*plan.MultiJoin); ok {
			// The aggregate's group keys and aggregate inputs are the
			// expressions consumed above the join.
			consumed := make([]plan.Expr, 0, len(x.GroupBy)+len(x.Aggs))
			consumed = append(consumed, x.GroupBy...)
			for _, a := range x.Aggs {
				if a.Input != nil {
					consumed = append(consumed, a.Input)
				}
			}
			node, rewritten, err := o.planMultiJoin(mj, consumed)
			if err != nil {
				return nil, err
			}
			ng := &plan.Agg{Input: node, GroupBy: rewritten[:len(x.GroupBy)], Out: x.Out}
			rest := rewritten[len(x.GroupBy):]
			ri := 0
			for _, a := range x.Aggs {
				na := a
				if a.Input != nil {
					na.Input = rest[ri]
					ri++
				}
				ng.Aggs = append(ng.Aggs, na)
			}
			ng.Aggs = o.markFuses(ng.Aggs)
			return ng, nil
		}
		in, err := o.optimizeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &plan.Agg{Input: in, GroupBy: x.GroupBy, Aggs: o.markFuses(x.Aggs), Out: x.Out}, nil
	case *plan.Filter:
		in, err := o.optimizeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &plan.Filter{Input: in, Pred: x.Pred}, nil
	case *plan.Sort:
		in, err := o.optimizeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &plan.Sort{Input: in, Keys: x.Keys}, nil
	case *plan.Limit:
		in, err := o.optimizeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &plan.Limit{Input: in, N: x.N}, nil
	case *plan.Join:
		// Already-built joins still recurse structurally: a MultiJoin nested
		// under one (a re-planned region, a hand-assembled plan) must not
		// reach the executor unplanned.
		l, err := o.optimizeNode(x.L)
		if err != nil {
			return nil, err
		}
		r, err := o.optimizeNode(x.R)
		if err != nil {
			return nil, err
		}
		return &plan.Join{L: l, R: r, LKeys: x.LKeys, RKeys: x.RKeys, Residual: x.Residual, Out: x.Out}, nil
	case *plan.Cross:
		l, err := o.optimizeNode(x.L)
		if err != nil {
			return nil, err
		}
		r, err := o.optimizeNode(x.R)
		if err != nil {
			return nil, err
		}
		return &plan.Cross{L: l, R: r, Residual: x.Residual, Out: x.Out}, nil
	case *plan.Bound:
		// A Bound subtree was already executed; re-optimizing below it would
		// desynchronize the node identity the executor's cache is keyed on.
		return x, nil
	case *plan.MultiJoin:
		// A bare MultiJoin (no consumer expressions): keep every column.
		idents := make([]plan.Expr, len(x.Out))
		for i, f := range x.Out {
			idents[i] = &plan.Col{Idx: i, Name: f.Name, T: f.T}
		}
		node, rewritten, err := o.planMultiJoin(x, idents)
		if err != nil {
			return nil, err
		}
		return &plan.Project{Input: node, Exprs: rewritten, Out: x.Out}, nil
	default:
		return n, nil
	}
}

// markFuses returns aggs with each call's fusion decision set. It runs on
// every Agg the optimizer emits, whether or not rewrites are enabled: the
// executor only honours these marks.
func (o *Optimizer) markFuses(aggs []plan.AggCall) []plan.AggCall {
	out := make([]plan.AggCall, len(aggs))
	for i, a := range aggs {
		a.Fuse, a.FuseSym = o.markFuse(a)
		out[i] = a
	}
	return out
}

// markFuse is the optimizer's fused-accumulation decision: a SUM over a
// two-argument outer_product or matrix_multiply call accumulates into one
// buffer instead of materializing a result object per row. The output
// matrix's size makes fusion win whenever the pattern applies, so the cost
// model here is a structural test; everything else is explicitly unfused so
// the executor need not re-derive the decision. A product whose left factor
// is trans_matrix(a) is marked FuseTransMulSum, so the executor accumulates
// aᵀb from a's rows without transposing; sym reports that the two operands
// of an outer or trans-matmul sum are the same expression (a Gram matrix).
func (o *Optimizer) markFuse(a plan.AggCall) (kind plan.FuseKind, sym bool) {
	if a.Spec == nil || a.Spec.Name != "sum" || a.Input == nil {
		return plan.FuseNone, false
	}
	call, ok := a.Input.(*plan.Call)
	if !ok || len(call.Args) != 2 {
		return plan.FuseNone, false
	}
	l, r := call.Args[0], call.Args[1]
	switch call.Fn.Name {
	case "outer_product":
		kind = plan.FuseOuterSum
	case "matrix_multiply":
		kind = plan.FuseMatMulSum
		if t, ok := l.(*plan.Call); ok && t.Fn.Name == "trans_matrix" && len(t.Args) == 1 {
			kind, l = plan.FuseTransMulSum, t.Args[0]
		}
	default:
		return plan.FuseNone, false
	}
	o.stats.FuseMarked.Add(1)
	return kind, kind != plan.FuseMatMulSum && plan.SameExpr(l, r)
}

// colWidth is the costed byte width of a type.
func (o *Optimizer) colWidth(t types.T) float64 {
	if !o.opts.SizeAwareCosting {
		return 16
	}
	return t.SizeBytes(o.opts.DefaultDim)
}

// EstimateRows gives a rough cardinality for any plan node; exact for stored
// tables, heuristic for derived inputs.
func EstimateRows(n plan.Node) float64 {
	switch x := n.(type) {
	case *plan.Scan:
		return math.Max(1, float64(x.Table.RowCount()))
	case *plan.Filter:
		rows := EstimateRows(x.Input)
		return math.Max(1, rows*filterSelectivity(x.Input, x.Pred, rows))
	case *plan.Project:
		return EstimateRows(x.Input)
	case *plan.Bound:
		return math.Max(1, x.Rows)
	case *plan.Agg:
		if len(x.GroupBy) == 0 {
			return 1
		}
		return math.Max(1, EstimateRows(x.Input)/10)
	case *plan.Sort:
		return EstimateRows(x.Input)
	case *plan.Limit:
		return math.Min(float64(x.N), EstimateRows(x.Input))
	case *plan.Join:
		// Key-aware equi-join selectivity: matching rows pair up through the
		// key's value space, so the join produces |L|·|R|/max(d_L, d_R) rows
		// per key (the classic System R estimate), not a fixed tenth.
		l, r := EstimateRows(x.L), EstimateRows(x.R)
		rows := l * r
		if len(x.LKeys) == 0 {
			return math.Max(1, rows/10)
		}
		for i := range x.LKeys {
			d := math.Max(distinctOf(x.L, x.LKeys[i], l), distinctOf(x.R, x.RKeys[i], r))
			rows /= math.Max(1, d)
		}
		return math.Max(1, rows)
	case *plan.Cross:
		return EstimateRows(x.L) * EstimateRows(x.R)
	case *plan.MultiJoin:
		r := 1.0
		for _, in := range x.Inputs {
			r *= EstimateRows(in)
		}
		return r
	case *plan.OneRow:
		return 1
	default:
		return 1
	}
}

// distinctOf estimates the number of distinct values of a join key
// expression over the given input. Only simple column references that trace
// back to base tables get catalog statistics; everything else defaults to
// the row count. Projections that merely pass a column through keep its
// source statistics (losing them was how join selectivity silently fell
// back to the row count whenever an input was pruned or eagerly projected).
func distinctOf(input plan.Node, key plan.Expr, rows float64) float64 {
	col, ok := key.(*plan.Col)
	if !ok {
		return math.Max(1, rows)
	}
	switch x := input.(type) {
	case *plan.Scan:
		return clampDistinct(x.Table.Distinct(col.Name), rows)
	case *plan.Filter:
		return distinctOf(x.Input, key, rows)
	case *plan.Bound:
		return distinctOf(x.Input, key, math.Min(rows, math.Max(1, x.Rows)))
	case *plan.Project:
		if col.Idx >= 0 && col.Idx < len(x.Exprs) {
			if src, isCol := x.Exprs[col.Idx].(*plan.Col); isCol {
				return distinctOf(x.Input, src, rows)
			}
		}
	}
	return math.Max(1, rows)
}

// filterSelectivity estimates the fraction of rows surviving a predicate:
// an equality against a constant keeps one value's share of the column's
// distinct values, conjunctions multiply, and anything else keeps the
// traditional third.
func filterSelectivity(input plan.Node, pred plan.Expr, rows float64) float64 {
	if be, ok := pred.(*plan.Binary); ok {
		switch {
		case be.Kind == plan.BinLogic && be.Op == "AND":
			return filterSelectivity(input, be.L, rows) * filterSelectivity(input, be.R, rows)
		case be.Kind == plan.BinCompare && be.Op == "=":
			var colSide plan.Expr
			if _, isConst := be.R.(*plan.Const); isConst {
				colSide = be.L
			} else if _, isConst := be.L.(*plan.Const); isConst {
				colSide = be.R
			}
			if col, isCol := colSide.(*plan.Col); isCol {
				return 1 / distinctOf(input, col, rows)
			}
		}
	}
	return 1.0 / 3
}

func clampDistinct(d, rows float64) float64 {
	if d < 1 {
		d = 1
	}
	if rows >= 1 && d > rows {
		d = rows
	}
	return d
}

func subsetBits(s uint) []int {
	var out []int
	for i := 0; s != 0; i++ {
		if s&1 != 0 {
			out = append(out, i)
		}
		s >>= 1
	}
	return out
}
