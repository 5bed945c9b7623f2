package exec

import (
	"math"
	"testing"

	"relalg/internal/builtins"
	"relalg/internal/catalog"
	"relalg/internal/cluster"
	"relalg/internal/linalg"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

func outerSumCall(t *testing.T) plan.AggCall {
	t.Helper()
	spec, _ := builtins.LookupAgg("sum")
	fn, _ := builtins.Lookup("outer_product")
	vecT := types.TVector(types.KnownDim(2))
	input := &plan.Call{
		Fn:   fn,
		Args: []plan.Expr{col(0, vecT), col(0, vecT)},
		T:    types.TMatrix(types.KnownDim(2), types.KnownDim(2)),
	}
	return plan.AggCall{Spec: spec, Input: input, T: input.T, Fuse: plan.FuseOuterSum, FuseSym: true}
}

// fusedState returns a fresh fused state for the call.
func fusedState(t *testing.T, call plan.AggCall) *fusedSumState {
	t.Helper()
	calls := []plan.AggCall{call}
	st, ok := newStates(calls, fusedSpecs(calls, true))[0].(*fusedSumState)
	if !ok {
		t.Fatal("call did not get a fused state")
	}
	return st
}

// stepWindow feeds rows to a fused state as one window, the way the
// aggregation's routing loop does: operands evaluated as columns, every lane
// routed to the state.
func stepWindow(st *fusedSumState, call plan.AggCall, rows []value.Row) error {
	sp := fusedOf(call)
	var cols [2]*value.Col
	for k, op := range sp.ops {
		c := &value.Col{}
		for _, r := range rows {
			v, err := op.Eval(nil, r)
			if err != nil {
				return err
			}
			c.Append(v)
		}
		cols[k] = c
	}
	lanes := make([]int32, len(rows))
	for i := range lanes {
		lanes[i] = int32(i)
	}
	return st.stepLanes(cols[0], cols[1], lanes, &rankKScratch{})
}

// TestFusedOfDetection: the executor honours the optimizer's marks and
// nothing else, re-checking only the structural requirements.
func TestFusedOfDetection(t *testing.T) {
	call := outerSumCall(t)
	if sp := fusedOf(call); sp.kind != plan.FuseOuterSum || !sp.sym {
		t.Fatal("marked Gram SUM(outer_product) not fused symmetric")
	}
	// An unmarked call never fuses: the executor does not pattern-match.
	unmarked := call
	unmarked.Fuse = plan.FuseNone
	if fusedOf(unmarked).kind != plan.FuseNone {
		t.Fatal("unmarked SUM(outer_product) fused")
	}
	// COUNT never fuses.
	cnt, _ := builtins.LookupAgg("count")
	if fusedOf(plan.AggCall{Spec: cnt, Input: call.Input, Fuse: plan.FuseOuterSum}).kind != plan.FuseNone {
		t.Fatal("COUNT misfused")
	}
	// A mismarked SUM of a plain column degrades to unfused.
	sum, _ := builtins.LookupAgg("sum")
	if fusedOf(plan.AggCall{Spec: sum, Input: col(0, types.TDouble), Fuse: plan.FuseOuterSum}).kind != plan.FuseNone {
		t.Fatal("plain SUM misfused")
	}
	// SUM(matrix_multiply) fuses.
	mm, _ := builtins.Lookup("matrix_multiply")
	mcall := &plan.Call{Fn: mm, Args: []plan.Expr{col(0, types.TMatrix(types.UnknownDim, types.UnknownDim)), col(0, types.TMatrix(types.UnknownDim, types.UnknownDim))}}
	if fusedOf(plan.AggCall{Spec: sum, Input: mcall, Fuse: plan.FuseMatMulSum}).kind != plan.FuseMatMulSum {
		t.Fatal("marked SUM(matrix_multiply) not fused")
	}
	// A general product never mirrors, whatever the mark says.
	if fusedOf(plan.AggCall{Spec: sum, Input: mcall, Fuse: plan.FuseMatMulSum, FuseSym: true}).sym {
		t.Fatal("SUM(matrix_multiply(a, a)) marked symmetric")
	}
	// A symmetric mark over different operands degrades to the full update.
	asym := outerSumCall(t)
	asym.Input.(*plan.Call).Args[1] = col(1, types.TVector(types.KnownDim(2)))
	if sp := fusedOf(asym); sp.kind != plan.FuseOuterSum || sp.sym {
		t.Fatal("mismarked symmetric outer sum mirrored")
	}
	// A trans-matmul mark needs a trans_matrix left factor.
	if fusedOf(plan.AggCall{Spec: sum, Input: mcall, Fuse: plan.FuseTransMulSum}).kind != plan.FuseNone {
		t.Fatal("trans-matmul mark without trans_matrix fused")
	}
}

func TestFusedOuterSumMatchesUnfused(t *testing.T) {
	call := outerSumCall(t)
	rows := []value.Row{
		{value.Vector(linalg.VectorOf(1, 2))},
		{value.Vector(linalg.VectorOf(3, -1))},
		{value.Vector(linalg.VectorOf(0, 5))},
	}
	// Fused path.
	fused := fusedState(t, call)
	if err := stepWindow(fused, call, rows); err != nil {
		t.Fatal(err)
	}
	got, err := fused.Final()
	if err != nil {
		t.Fatal(err)
	}
	// Unfused reference.
	ref := call.Spec.New()
	for _, r := range rows {
		v, err := call.Input.Eval(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Step(v); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Final()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mat.EqualApprox(want.Mat, 1e-12) {
		t.Fatalf("fused %v != unfused %v", got.Mat, want.Mat)
	}
}

func TestFusedSumEmptyIsNull(t *testing.T) {
	call := outerSumCall(t)
	v, err := fusedState(t, call).Final()
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Fatalf("empty fused SUM = %v, want NULL", v)
	}
}

func TestFusedSumMerge(t *testing.T) {
	call := outerSumCall(t)
	a, b := fusedState(t, call), fusedState(t, call)
	_ = stepWindow(a, call, []value.Row{{value.Vector(linalg.VectorOf(1, 0))}})
	_ = stepWindow(b, call, []value.Row{{value.Vector(linalg.VectorOf(0, 2))}})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Final()
	want, _ := linalg.MatrixFromRows([][]float64{{1, 0}, {0, 4}})
	if !got.Mat.Equal(want) {
		t.Fatalf("merged = %v", got.Mat)
	}
	// Merging an empty state is a no-op.
	if err := a.Merge(fusedState(t, call)); err != nil {
		t.Fatal(err)
	}
	// Merging into an empty state adopts the other side.
	c := fusedState(t, call)
	if err := c.Merge(a); err != nil {
		t.Fatal(err)
	}
	got2, _ := c.Final()
	if !got2.Mat.Equal(want) {
		t.Fatalf("adopted = %v", got2.Mat)
	}
}

func TestFusedSumNullInputsSkipped(t *testing.T) {
	call := outerSumCall(t)
	st := fusedState(t, call)
	if err := stepWindow(st, call, []value.Row{{value.Null()}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Final(); !v.IsNull() {
		t.Fatal("null row accumulated")
	}
	if err := stepWindow(st, call, []value.Row{{value.Null()}, {value.Vector(linalg.VectorOf(1, 1))}}); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Final()
	want, _ := linalg.MatrixFromRows([][]float64{{1, 1}, {1, 1}})
	if !got.Mat.Equal(want) {
		t.Fatalf("after null skip = %v", got.Mat)
	}
}

func TestFusedSumShapeError(t *testing.T) {
	call := outerSumCall(t)
	st := fusedState(t, call)
	_ = stepWindow(st, call, []value.Row{{value.Vector(linalg.VectorOf(1, 2))}})
	if err := stepWindow(st, call, []value.Row{{value.Vector(linalg.VectorOf(1, 2, 3))}}); err == nil {
		t.Fatal("shape mismatch across windows accepted")
	}
	st = fusedState(t, call)
	if err := stepWindow(st, call, []value.Row{{value.Vector(linalg.VectorOf(1, 2))}, {value.Vector(linalg.VectorOf(1, 2, 3))}}); err == nil {
		t.Fatal("shape mismatch within a window accepted")
	}
}

// TestProjectionFusionMatchesUnfused compares a fused Project-over-Join with
// the manually staged equivalent.
func TestProjectionFusionMatchesUnfused(t *testing.T) {
	tables := memSource{}
	ctx := testCtx(tables)
	tables["l"] = intTable(ctx, 20)
	tables["r"] = intTable(ctx, 20)
	l := scanNode("l", 20, catalog.Column{Name: "a", Type: types.TInt}, catalog.Column{Name: "b", Type: types.TInt})
	r := scanNode("r", 20, catalog.Column{Name: "c", Type: types.TInt}, catalog.Column{Name: "d", Type: types.TInt})
	join := joinNode(l, r, 0, 0)
	proj := &plan.Project{
		Input: join,
		Exprs: []plan.Expr{
			&plan.Binary{Op: "+", Kind: plan.BinArith, L: col(1, types.TInt), R: col(3, types.TInt), T: types.TInt},
		},
		Out: plan.Schema{{Name: "s", T: types.TInt}},
	}
	rel, err := Run(ctx, proj)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.String() != "(s INTEGER)" {
		t.Fatalf("fused schema %s", rel.Schema)
	}
	var total int64
	for _, row := range rel.Rows() {
		if len(row) != 1 {
			t.Fatalf("row width %d (fusion must emit projected rows)", len(row))
		}
		total += row[0].I
	}
	// Sum of b+d over the 20 key-matched pairs: 2 * sum(i%5 for i<20).
	want := int64(2 * (0 + 1 + 2 + 3 + 4) * 4)
	if total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

func TestFusedSumStepUnfusedPath(t *testing.T) {
	// The generic Step path (fed pre-computed matrices) must agree with
	// stepLanes; the distributed merge path can deliver values this way.
	call := outerSumCall(t)
	st := fusedState(t, call)
	if err := st.Step(value.Null()); err != nil {
		t.Fatal(err)
	}
	m1, _ := linalg.MatrixFromRows([][]float64{{1, 0}, {0, 1}})
	m2, _ := linalg.MatrixFromRows([][]float64{{0, 2}, {3, 0}})
	if err := st.Step(value.Matrix(m1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Step(value.Matrix(m2)); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Final()
	want, _ := linalg.MatrixFromRows([][]float64{{1, 2}, {3, 1}})
	if !got.Mat.Equal(want) {
		t.Fatalf("step path sum = %v", got.Mat)
	}
	if err := st.Step(value.Int(1)); err == nil {
		t.Fatal("non-matrix Step accepted")
	}
	// Step must not mutate its first input (it clones).
	fresh := fusedState(t, call)
	_ = fresh.Step(value.Matrix(m1))
	_ = fresh.Step(value.Matrix(m2))
	if m1.At(0, 1) != 0 {
		t.Fatal("Step aliased its first input")
	}
	// Merging with a foreign state type errors.
	sum, _ := builtins.LookupAgg("sum")
	if err := fresh.Merge(sum.New()); err == nil {
		t.Fatal("merge with plain sum state accepted")
	}
}

func TestFusedMatMulSum(t *testing.T) {
	spec, _ := builtins.LookupAgg("sum")
	mm, _ := builtins.Lookup("matrix_multiply")
	mt := types.TMatrix(types.KnownDim(2), types.KnownDim(2))
	call := plan.AggCall{
		Spec:  spec,
		Input: &plan.Call{Fn: mm, Args: []plan.Expr{col(0, mt), col(1, mt)}, T: mt},
		T:     mt,
		Fuse:  plan.FuseMatMulSum,
	}
	st := fusedState(t, call)
	id := linalg.Identity(2)
	two := id.Scale(2)
	if err := stepWindow(st, call, []value.Row{{value.Matrix(id), value.Matrix(two)}, {value.Matrix(two), value.Matrix(two)}}); err != nil {
		t.Fatal(err)
	}
	got, _ := st.Final()
	if !got.Mat.Equal(id.Scale(6)) {
		t.Fatalf("fused matmul sum = %v", got.Mat)
	}
	// Kind errors.
	if err := stepWindow(st, call, []value.Row{{value.Int(1), value.Matrix(id)}}); err == nil {
		t.Fatal("non-matrix operand accepted")
	}
}

func TestValsEqualCornerCases(t *testing.T) {
	if valsEqual([]value.Value{value.Int(1)}, []value.Value{value.Int(1), value.Int(2)}) {
		t.Fatal("length mismatch equal")
	}
	if !valsEqual([]value.Value{value.Null()}, []value.Value{value.Null()}) {
		t.Fatal("NULL group keys must match")
	}
	if valsEqual([]value.Value{value.String_("a")}, []value.Value{value.String_("b")}) {
		t.Fatal("different strings equal")
	}
	if !valsEqual([]value.Value{value.Int(2)}, []value.Value{value.Double(2)}) {
		t.Fatal("numeric cross-kind keys must match")
	}
}

func TestCompareForSortNulls(t *testing.T) {
	if c, err := compareForSort(value.Null(), value.Null()); err != nil || c != 0 {
		t.Fatalf("null/null = %d, %v", c, err)
	}
	if c, err := compareForSort(value.Null(), value.Int(1)); err != nil || c != -1 {
		t.Fatalf("null/1 = %d, %v", c, err)
	}
	if c, err := compareForSort(value.Int(1), value.Null()); err != nil || c != 1 {
		t.Fatalf("1/null = %d, %v", c, err)
	}
	if c, err := compareForSort(value.Int(1), value.Int(2)); err != nil || c != -1 {
		t.Fatalf("1/2 = %d, %v", c, err)
	}
}

// transGramAgg is SUM(matrix_multiply(trans_matrix(m), m)) over a one-column
// table of blocks, with the given fusion mark.
func transGramAgg(t *testing.T, blocks int, fuse plan.FuseKind) *plan.Agg {
	t.Helper()
	spec, _ := builtins.LookupAgg("sum")
	mm, _ := builtins.Lookup("matrix_multiply")
	tr, _ := builtins.Lookup("trans_matrix")
	mt := types.TMatrix(types.KnownDim(4), types.KnownDim(3))
	gt := types.TMatrix(types.KnownDim(3), types.KnownDim(3))
	m := col(0, mt)
	input := &plan.Call{Fn: mm, Args: []plan.Expr{
		&plan.Call{Fn: tr, Args: []plan.Expr{m}, T: types.TMatrix(types.KnownDim(3), types.KnownDim(4))}, m}, T: gt}
	return &plan.Agg{
		Input: scanNode("xb", int64(blocks), catalog.Column{Name: "m", Type: mt}),
		Aggs:  []plan.AggCall{{Spec: spec, Input: input, T: gt, Fuse: fuse, FuseSym: true}},
		Out:   plan.Schema{{Name: "s", T: gt}},
	}
}

// transGramAllocs is the allocations of one run of transGramAgg over n
// blocks on a single-partition cluster.
func transGramAllocs(t *testing.T, n int, fuse plan.FuseKind) float64 {
	t.Helper()
	rows := make([]value.Row, n)
	for i := range rows {
		m := linalg.NewMatrix(4, 3)
		for j := range m.Data {
			m.Data[j] = float64((i+j)%7) - 3
		}
		rows[i] = value.Row{value.Matrix(m)}
	}
	ctx := &Context{Cluster: cluster.New(cluster.Config{Nodes: 1, PartitionsPerNode: 1}),
		Tables: memSource{"xb": {rows}}, Timings: NewTimings()}
	agg := transGramAgg(t, n, fuse)
	var runErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(ctx, agg); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestTransGramAllocsFlat pins the window kernel's allocation profile: a
// Gram sum over N blocks allocates the same whatever N is — no transpose per
// block, no per-row evaluation result — while the per-block product the
// trans-matmul mark replaces allocates a transpose for every block.
func TestTransGramAllocsFlat(t *testing.T) {
	small, large := transGramAllocs(t, 8, plan.FuseTransMulSum), transGramAllocs(t, 512, plan.FuseTransMulSum)
	if large > small {
		t.Fatalf("trans-matmul Gram: %v allocs over 8 blocks, %v over 512", small, large)
	}
	perBlock := transGramAllocs(t, 512, plan.FuseMatMulSum)
	if perBlock < large+512 {
		t.Fatalf("per-block product: %v allocs over 512 blocks, want at least one per block over the kernel's %v", perBlock, large)
	}
}

// TestFusedSumNonFiniteGoesPerRow: a window holding a NaN or ±Inf takes the
// per-row path and the state stays there, so later finite windows never
// mirror; the result matches per-row accumulation bit for bit throughout.
func TestFusedSumNonFiniteGoesPerRow(t *testing.T) {
	call := outerSumCall(t)
	windows := [][]value.Row{
		{{value.Vector(linalg.VectorOf(1.5, -2))}, {value.Vector(linalg.VectorOf(0.25, 3))}},
		{{value.Vector(linalg.VectorOf(math.Float64frombits(0x7ff8000000000005), 1))}, {value.Vector(linalg.VectorOf(math.Inf(-1), 2))}},
		{{value.Vector(linalg.VectorOf(-1, 7))}},
	}
	st := fusedState(t, call)
	ref := linalg.NewMatrix(2, 2)
	for w, rows := range windows {
		if err := stepWindow(st, call, rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := r[0].Vec.OuterAddInto(ref, r[0].Vec); err != nil {
				t.Fatal(err)
			}
		}
		if want := w > 0; st.perRow != want {
			t.Fatalf("after window %d: perRow = %v, want %v", w, st.perRow, want)
		}
		for i, x := range ref.Data {
			if math.Float64bits(x) != math.Float64bits(st.acc.Data[i]) {
				t.Fatalf("after window %d: entry %d is %v, per-row gives %v", w, i, st.acc.Data[i], x)
			}
		}
	}
}
