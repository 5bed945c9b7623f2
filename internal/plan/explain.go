package plan

import (
	"fmt"
	"strings"
)

// Explain renders a plan tree as indented text for EXPLAIN output and tests.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case *Scan:
		fmt.Fprintf(b, "%sScan %s", indent, x.Table.Name)
		if x.Alias != "" && x.Alias != x.Table.Name {
			fmt.Fprintf(b, " AS %s", x.Alias)
		}
		fmt.Fprintf(b, " rows=%d\n", x.Table.RowCount())
	case *Project:
		exprs := make([]string, len(x.Exprs))
		for i, e := range x.Exprs {
			exprs[i] = e.String()
		}
		fmt.Fprintf(b, "%sProject [%s]\n", indent, strings.Join(exprs, ", "))
		explain(b, x.Input, depth+1)
	case *Filter:
		fmt.Fprintf(b, "%sFilter %s\n", indent, x.Pred.String())
		explain(b, x.Input, depth+1)
	case *Join:
		keys := make([]string, len(x.LKeys))
		for i := range x.LKeys {
			keys[i] = x.LKeys[i].String() + " = " + x.RKeys[i].String()
		}
		fmt.Fprintf(b, "%sHashJoin on %s", indent, strings.Join(keys, " AND "))
		writeResidual(b, x.Residual)
		b.WriteByte('\n')
		explain(b, x.L, depth+1)
		explain(b, x.R, depth+1)
	case *Cross:
		fmt.Fprintf(b, "%sCrossJoin", indent)
		writeResidual(b, x.Residual)
		b.WriteByte('\n')
		explain(b, x.L, depth+1)
		explain(b, x.R, depth+1)
	case *MultiJoin:
		conj := make([]string, len(x.Conjuncts))
		for i, c := range x.Conjuncts {
			conj[i] = c.String()
		}
		fmt.Fprintf(b, "%sMultiJoin [%s]\n", indent, strings.Join(conj, " AND "))
		for _, in := range x.Inputs {
			explain(b, in, depth+1)
		}
	case *Agg:
		groups := make([]string, len(x.GroupBy))
		for i, g := range x.GroupBy {
			groups[i] = g.String()
		}
		aggs := make([]string, len(x.Aggs))
		for i, a := range x.Aggs {
			if a.Input == nil {
				aggs[i] = a.Spec.Name + "(*)"
			} else {
				aggs[i] = a.Spec.Name + "(" + a.Input.String() + ")"
			}
			if a.Fuse != FuseNone {
				aggs[i] += " [" + a.Fuse.String()
				if a.FuseSym {
					aggs[i] += ", symmetric"
				}
				aggs[i] += "]"
			}
		}
		fmt.Fprintf(b, "%sAggregate group=[%s] aggs=[%s]\n", indent,
			strings.Join(groups, ", "), strings.Join(aggs, ", "))
		explain(b, x.Input, depth+1)
	case *Sort:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys[i] = fmt.Sprintf("#%d %s", k.Col, dir)
		}
		fmt.Fprintf(b, "%sSort [%s]\n", indent, strings.Join(keys, ", "))
		explain(b, x.Input, depth+1)
	case *Limit:
		fmt.Fprintf(b, "%sLimit %d\n", indent, x.N)
		explain(b, x.Input, depth+1)
	case *Bound:
		fmt.Fprintf(b, "%sBound rows=%g\n", indent, x.Rows)
		explain(b, x.Input, depth+1)
	case *OneRow:
		fmt.Fprintf(b, "%sOneRow\n", indent)
	default:
		fmt.Fprintf(b, "%s%T\n", indent, n)
	}
}

func writeResidual(b *strings.Builder, residual []Expr) {
	if len(residual) == 0 {
		return
	}
	parts := make([]string, len(residual))
	for i, r := range residual {
		parts[i] = r.String()
	}
	fmt.Fprintf(b, " filter [%s]", strings.Join(parts, " AND "))
}
