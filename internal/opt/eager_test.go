package opt

import (
	"strings"
	"sync"
	"testing"

	"relalg/internal/catalog"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/types"
)

// blockCatalog is the block layout of the paper's LA workloads, with
// matrix dimensions unknown to the catalog as in tables created by DDL:
//
//	xd (mi INTEGER, m MATRIX[][])  -- 8 point blocks
//	am (val MATRIX[][])            -- 1 metric matrix
//	xb (mi INTEGER, m MATRIX[][])  -- 40 regression blocks
//	yb (mi INTEGER, v VECTOR[])    -- 40 target blocks
//	xs (k INTEGER, m MATRIX[][])   -- 10 rows, 10 distinct keys
//	ys (k INTEGER, m MATRIX[][])   -- 1000 rows, 1000 distinct keys
func blockCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mat := types.TMatrix(types.Dim{}, types.Dim{})
	add := func(name string, rows int64, cols ...catalog.Column) {
		t.Helper()
		if err := cat.CreateTable(catalog.NewTableMeta(name, catalog.Schema{Cols: cols}, rows)); err != nil {
			t.Fatal(err)
		}
	}
	add("xd", 8, catalog.Column{Name: "mi", Type: types.TInt}, catalog.Column{Name: "m", Type: mat})
	add("am", 1, catalog.Column{Name: "val", Type: mat})
	add("xb", 40, catalog.Column{Name: "mi", Type: types.TInt}, catalog.Column{Name: "m", Type: mat})
	add("yb", 40, catalog.Column{Name: "mi", Type: types.TInt}, catalog.Column{Name: "v", Type: types.TVector(types.Dim{})})
	add("xs", 10, catalog.Column{Name: "k", Type: types.TInt}, catalog.Column{Name: "m", Type: mat})
	add("ys", 1000, catalog.Column{Name: "k", Type: types.TInt}, catalog.Column{Name: "m", Type: mat})
	cat.SetDistinct("xd", "mi", 8)
	cat.SetDistinct("xb", "mi", 40)
	cat.SetDistinct("yb", "mi", 40)
	cat.SetDistinct("xs", "k", 10)
	cat.SetDistinct("ys", "k", 1000)
	return cat
}

// distanceBlockQuery is the block-tile distance statement: per block of
// points, the row minima of x1·A·x2ᵀ over every other block, with the
// diagonal of the same-block tile masked.
const distanceBlockQuery = `SELECT x1.mi AS mi,
	MIN(row_mins(matrix_multiply(matrix_multiply(x1.m, a.val), trans_matrix(x2.m))
		+ identity_matrix(100) * (1e300 * (1 / (1 + (x1.mi - x2.mi) * (x1.mi - x2.mi)))))) AS mins
	FROM xd AS x1, xd AS x2, am AS a GROUP BY x1.mi`

// collect returns every node of the plan in pre-order.
func collect(n plan.Node) []plan.Node {
	out := []plan.Node{n}
	for _, c := range n.Children() {
		out = append(out, collect(c)...)
	}
	return out
}

// scansUnder lists the table names scanned below n.
func scansUnder(n plan.Node) []string {
	var names []string
	for _, x := range collect(n) {
		if s, ok := x.(*plan.Scan); ok {
			names = append(names, s.Table.Name)
		}
	}
	return names
}

// linesWith counts the EXPLAIN lines that contain sub.
func linesWith(text, sub string) int {
	n := 0
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, sub) {
			n++
		}
	}
	return n
}

// TestEagerSubExpressionDistanceBlock: A·x2ᵀ covers only am and one copy of
// xd, so it is computed once per (am, xd) row in the Project directly over
// their cross join, and the outer cross join sees its result instead of the
// two matrices.
func TestEagerSubExpressionDistanceBlock(t *testing.T) {
	n := optimize(t, blockCatalog(t), distanceBlockQuery, DefaultOptions())
	text := plan.Explain(n)
	var outer *plan.Cross
	for _, x := range collect(n) {
		if c, ok := x.(*plan.Cross); ok {
			outer = c
			break
		}
	}
	if outer == nil {
		t.Fatalf("no cross join:\n%s", text)
	}
	var inner *plan.Project
	for _, side := range []plan.Node{outer.L, outer.R} {
		if p, ok := side.(*plan.Project); ok {
			if _, overCross := p.Input.(*plan.Cross); overCross {
				inner = p
			}
		}
	}
	if inner == nil {
		t.Fatalf("no Project over an inner cross join below the outer one:\n%s", text)
	}
	if got := strings.Join(scansUnder(inner), ","); got != "am,xd" && got != "xd,am" {
		t.Fatalf("inner cross join scans %s, want am and xd:\n%s", got, text)
	}
	hoisted := false
	for _, e := range inner.Exprs {
		s := e.String()
		if strings.HasPrefix(s, "matrix_multiply(") && strings.Contains(s, ":val, trans_matrix(#") {
			hoisted = true
		}
	}
	if !hoisted {
		t.Fatalf("matrix_multiply(val, trans_matrix(m)) not computed over the inner cross join:\n%s", text)
	}
	for _, f := range inner.Out {
		if f.Name == "val" || f.Name == "m" {
			t.Fatalf("%s flows to the outer cross join:\n%s", f.Name, text)
		}
	}
	if linesWith(text, "trans_matrix") != 1 {
		t.Fatalf("A·x2ᵀ evaluated in more than one place:\n%s", text)
	}
}

// TestEagerSubExpressionDisabled: without eager projection no part of the
// consumer moves below the join; the whole expression is evaluated above it.
func TestEagerSubExpressionDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.EagerProjection = false
	text := plan.Explain(optimize(t, blockCatalog(t), distanceBlockQuery, opts))
	if linesWith(text, "matrix_multiply") != 1 || linesWith(text, "row_mins(") != 1 {
		t.Fatalf("expected the whole consumer on one line:\n%s", text)
	}
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, "matrix_multiply") && !strings.Contains(l, "row_mins(") {
			t.Fatalf("sub-expression hoisted with eager projection off:\n%s", text)
		}
	}
}

// TestEagerSubExpressionNotShrinking: trans_matrix(x.m) covers one side of
// regression_block's join but is as wide as its input, so it stays inside
// the Xᵀy product and the fused trans-matmul sum keeps its operand.
func TestEagerSubExpressionNotShrinking(t *testing.T) {
	n := optimize(t, blockCatalog(t), `SELECT matrix_vector_multiply(matrix_inverse(SUM(matrix_multiply(trans_matrix(x.m), x.m))),
			SUM(matrix_vector_multiply(trans_matrix(x.m), y.v)))
		FROM xb AS x, yb AS y WHERE x.mi = y.mi`, DefaultOptions())
	text := plan.Explain(n)
	for _, x := range collect(n) {
		if p, ok := x.(*plan.Project); ok {
			for _, e := range p.Exprs {
				if strings.HasPrefix(e.String(), "trans_matrix(") {
					t.Fatalf("trans_matrix computed on its own:\n%s", text)
				}
			}
		}
	}
	agg := findAgg(n)
	if agg == nil || len(agg.Aggs) != 2 {
		t.Fatalf("no two-call aggregate:\n%s", text)
	}
	if agg.Aggs[0].Fuse != plan.FuseTransMulSum || !agg.Aggs[0].FuseSym {
		t.Fatalf("Gram sum lost its symmetric trans-matmul mark:\n%s", text)
	}
	if linesWith(text, "matrix_vector_multiply(trans_matrix(#") != 1 {
		t.Fatalf("Xᵀy product no longer reads trans_matrix inline:\n%s", text)
	}
}

// TestEagerSubExpressionRowsGuard: sum_matrix(ys.m) covers ys alone, but
// the equi-join with the 10-row xs keeps only 10 of ys's 1000 rows, so
// computing it on the scan would run it 100 times as often; it stays in the
// consumer. sum_matrix(xs.m) runs on as many rows below the join as above
// it and moves down. Without the join predicate both move down.
func TestEagerSubExpressionRowsGuard(t *testing.T) {
	const sel = `SELECT sum_matrix(xs.m) + sum_matrix(ys.m) FROM xs, ys`
	leafSums := func(n plan.Node) map[string]bool {
		out := map[string]bool{}
		for _, x := range collect(n) {
			p, ok := x.(*plan.Project)
			if !ok {
				continue
			}
			if s, ok := p.Input.(*plan.Scan); ok {
				for _, e := range p.Exprs {
					if strings.HasPrefix(e.String(), "sum_matrix(") {
						out[s.Table.Name] = true
					}
				}
			}
		}
		return out
	}
	n := optimize(t, blockCatalog(t), sel+" WHERE xs.k = ys.k", DefaultOptions())
	if got := leafSums(n); !got["xs"] || got["ys"] {
		t.Fatalf("want sum_matrix over the xs scan only, got %v:\n%s", got, plan.Explain(n))
	}
	n = optimize(t, blockCatalog(t), sel, DefaultOptions())
	if got := leafSums(n); !got["xs"] || !got["ys"] {
		t.Fatalf("want sum_matrix over both scans, got %v:\n%s", got, plan.Explain(n))
	}
}

// TestEagerSubExpressionGuardOnChosenTree: the rows guard holds where the
// chosen join tree first covers a sub-consumer's relations, which can be a
// larger subset, with more rows, than the relations alone. A·B covers a and
// b (100 rows); the consumer is evaluated on the 100 rows of the full join.
// A tree that joins a with the 1000-row c before b first covers A·B on
// 10000 rows, so A·B stays in the consumer there; a tree with its own a×b
// subtree computes it on 100.
func TestEagerSubExpressionGuardOnChosenTree(t *testing.T) {
	cat := catalog.New()
	mat := types.TMatrix(types.Dim{}, types.Dim{})
	for _, tb := range []struct {
		name string
		rows int64
		cols []catalog.Column
	}{
		{"a", 10, []catalog.Column{{Name: "k", Type: types.TInt}, {Name: "m", Type: mat}}},
		{"b", 10, []catalog.Column{{Name: "val", Type: mat}}},
		{"c", 1000, []catalog.Column{{Name: "k", Type: types.TInt}, {Name: "j", Type: types.TInt}}},
		{"d", 10, []catalog.Column{{Name: "j", Type: types.TInt}, {Name: "m", Type: mat}}},
	} {
		if err := cat.CreateTable(catalog.NewTableMeta(tb.name, catalog.Schema{Cols: tb.cols}, tb.rows)); err != nil {
			t.Fatal(err)
		}
	}
	cat.SetDistinct("a", "k", 10)
	cat.SetDistinct("c", "k", 10)
	cat.SetDistinct("c", "j", 1000)
	cat.SetDistinct("d", "j", 10)
	const q = `SELECT row_mins(matrix_multiply(matrix_multiply(a.m, b.val), trans_matrix(d.m)))
		FROM a, b, c, d WHERE a.k = c.k AND c.j = d.j`

	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	logical, err := plan.NewBuilder(cat).BuildSelect(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	var proj *plan.Project
	for _, x := range collect(logical) {
		if p, ok := x.(*plan.Project); ok {
			if _, overJoin := p.Input.(*plan.MultiJoin); overJoin {
				proj = p
			}
		}
	}
	if proj == nil {
		t.Fatalf("no Project over a MultiJoin:\n%s", plan.Explain(logical))
	}
	mj := proj.Input.(*plan.MultiJoin)
	st, _, err := New(DefaultOptions()).newJoinState(mj, proj.Exprs)
	if err != nil {
		t.Fatal(err)
	}
	bit := map[string]uint{}
	for i, in := range mj.Inputs {
		bit[scansUnder(in)[0]] = 1 << i
	}
	a, b, c, d := bit["a"], bit["b"], bit["c"], bit["d"]
	full := a | b | c | d
	sub := -1
	for i, cons := range st.consumers {
		if cons.rels == a|b {
			sub = i
		}
	}
	if sub < 0 {
		t.Fatal("A·B is not a sub-consumer")
	}
	st.decideEager(full, func(rels uint) uint { return rels })
	if !st.consumers[sub].eager {
		t.Fatal("A·B not eager on its own relations")
	}
	st.split = map[uint][2]uint{full: {a | b | c, d}, a | b | c: {a | c, b}, a | c: {a, c}}
	st.decideEager(full, st.home)
	if st.consumers[sub].eager {
		t.Fatalf("A·B eager where the tree first covers it on %v rows", st.rows(a|b|c))
	}
	st.split = map[uint][2]uint{full: {a | b, c | d}, a | b: {a, b}, c | d: {c, d}}
	st.decideEager(full, st.home)
	if !st.consumers[sub].eager {
		t.Fatal("A·B not eager over its own a×b subtree")
	}
	optimize(t, cat, q, DefaultOptions())
}

// TestConcurrentOptimizeSharedStats compiles plans from many goroutines
// through one optimizer and one RewriteStats, as the server's sessions do:
// every plan must match the serial one, and the shared counters must add up.
func TestConcurrentOptimizeSharedStats(t *testing.T) {
	cat := blockCatalog(t)
	queries := []string{
		distanceBlockQuery,
		`SELECT sum_matrix(xs.m) + sum_matrix(ys.m) FROM xs, ys WHERE xs.k = ys.k`,
		`SELECT matrix_vector_multiply(matrix_inverse(SUM(matrix_multiply(trans_matrix(x.m), x.m))),
			SUM(matrix_vector_multiply(trans_matrix(x.m), y.v)))
		FROM xb AS x, yb AS y WHERE x.mi = y.mi`,
	}
	build := func(q string) plan.Node {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Error(err)
			return nil
		}
		logical, err := plan.NewBuilder(cat).BuildSelect(stmt.(*sqlparse.Select))
		if err != nil {
			t.Error(err)
			return nil
		}
		return logical
	}
	serialOpts, serialStats := statsOptions()
	want := make([]string, len(queries))
	for i, q := range queries {
		n, err := New(serialOpts).Optimize(build(q))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = plan.Explain(n)
	}

	const workers, rounds = 8, 10
	opts, stats := statsOptions()
	o := New(opts)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					logical := build(q)
					if logical == nil {
						return
					}
					n, err := o.Optimize(logical)
					if err != nil {
						t.Error(err)
						return
					}
					if got := plan.Explain(n); got != want[i] {
						t.Errorf("query %d planned differently under concurrency:\n%s\nwant\n%s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, one := stats.FuseMarked.Load(), serialStats.FuseMarked.Load(); got != workers*rounds*one {
		t.Fatalf("shared FuseMarked = %d, want %d", got, workers*rounds*one)
	}
	if got, one := stats.Total(), serialStats.Total(); got != workers*rounds*one {
		t.Fatalf("shared rewrite total = %d, want %d", got, workers*rounds*one)
	}
}
