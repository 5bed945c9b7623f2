package builtins

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"relalg/internal/linalg"
	"relalg/internal/types"
	"relalg/internal/value"
)

func runAgg(t *testing.T, name string, vals ...value.Value) value.Value {
	t.Helper()
	spec, ok := LookupAgg(name)
	if !ok {
		t.Fatalf("aggregate %q not registered", name)
	}
	st := spec.New()
	for _, v := range vals {
		if err := st.Step(v); err != nil {
			t.Fatalf("%s step: %v", name, err)
		}
	}
	out, err := st.Final()
	if err != nil {
		t.Fatalf("%s final: %v", name, err)
	}
	return out
}

func TestIsAggregate(t *testing.T) {
	for _, n := range []string{"sum", "count", "avg", "min", "max", "vectorize", "rowmatrix", "colmatrix"} {
		if !IsAggregate(n) {
			t.Errorf("%q not an aggregate", n)
		}
	}
	if IsAggregate("matrix_multiply") {
		t.Error("matrix_multiply misclassified as aggregate")
	}
}

func TestSumInts(t *testing.T) {
	got := runAgg(t, "sum", value.Int(1), value.Int(2), value.Int(3))
	if !got.Equal(value.Int(6)) {
		t.Fatalf("sum = %v", got)
	}
}

func TestSumMixedIntDouble(t *testing.T) {
	got := runAgg(t, "sum", value.Int(1), value.Double(2.5))
	if !got.Equal(value.Double(3.5)) {
		t.Fatalf("sum = %v", got)
	}
	// Double first, then int.
	got = runAgg(t, "sum", value.Double(2.5), value.Int(1))
	if !got.Equal(value.Double(3.5)) {
		t.Fatalf("sum = %v", got)
	}
}

func TestSumVectorsAndMatrices(t *testing.T) {
	got := runAgg(t, "sum", vec(1, 2), vec(3, 4), vec(5, 6))
	if !got.Equal(vec(9, 12)) {
		t.Fatalf("sum vectors = %v", got)
	}
	got = runAgg(t, "sum", value.Matrix(linalg.Identity(2)), value.Matrix(linalg.Identity(2)))
	if !got.Equal(value.Matrix(linalg.Identity(2).Scale(2))) {
		t.Fatalf("sum matrices = %v", got)
	}
}

func TestSumDoesNotMutateInput(t *testing.T) {
	v := linalg.VectorOf(1, 2)
	runAgg(t, "sum", value.Vector(v), vec(10, 10))
	if !v.Equal(linalg.VectorOf(1, 2)) {
		t.Fatal("SUM mutated its first input")
	}
}

func TestSumEmptyAndNulls(t *testing.T) {
	if got := runAgg(t, "sum"); !got.IsNull() {
		t.Fatalf("empty sum = %v, want NULL", got)
	}
	got := runAgg(t, "sum", value.Null(), value.Int(5), value.Null())
	if !got.Equal(value.Int(5)) {
		t.Fatalf("sum with nulls = %v", got)
	}
}

func TestSumMixedShapesError(t *testing.T) {
	spec, _ := LookupAgg("sum")
	st := spec.New()
	if err := st.Step(vec(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Step(vec(1, 2, 3)); err == nil {
		t.Fatal("mixed vector lengths accepted")
	}
	st = spec.New()
	_ = st.Step(value.Int(1))
	if err := st.Step(vec(1)); err == nil {
		t.Fatal("int then vector accepted")
	}
}

func TestCount(t *testing.T) {
	got := runAgg(t, "count", value.Int(1), value.Null(), value.String_("x"))
	if !got.Equal(value.Int(2)) {
		t.Fatalf("count = %v (NULLs don't count)", got)
	}
	if got := runAgg(t, "count"); !got.Equal(value.Int(0)) {
		t.Fatalf("empty count = %v", got)
	}
}

func TestAvg(t *testing.T) {
	got := runAgg(t, "avg", value.Int(1), value.Int(2))
	if !got.Equal(value.Double(1.5)) {
		t.Fatalf("avg = %v", got)
	}
	if got := runAgg(t, "avg"); !got.IsNull() {
		t.Fatalf("empty avg = %v", got)
	}
	got = runAgg(t, "avg", vec(1, 2), vec(3, 4))
	if !got.Equal(vec(2, 3)) {
		t.Fatalf("avg vectors = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	got := runAgg(t, "min", value.Int(3), value.Double(1.5), value.Int(2))
	if !got.Equal(value.Double(1.5)) {
		t.Fatalf("min = %v", got)
	}
	got = runAgg(t, "max", value.Int(3), value.Double(1.5))
	if !got.Equal(value.Int(3)) {
		t.Fatalf("max = %v", got)
	}
	if got := runAgg(t, "min"); !got.IsNull() {
		t.Fatalf("empty min = %v", got)
	}
	got = runAgg(t, "min", value.String_("b"), value.String_("a"))
	if !got.Equal(value.String_("a")) {
		t.Fatalf("min strings = %v", got)
	}
}

func TestVectorize(t *testing.T) {
	// The paper's example: VECTORIZE(label_scalar(y_i, i)).
	got := runAgg(t, "vectorize",
		value.LabeledScalar(30, 3),
		value.LabeledScalar(10, 1),
		value.LabeledScalar(0.5, 0),
	)
	// Holes (label 2) are zero; size = max label + 1 = 4.
	if !got.Vec.Equal(linalg.VectorOf(0.5, 10, 0, 30)) {
		t.Fatalf("vectorize = %v", got)
	}
	spec, _ := LookupAgg("vectorize")
	st := spec.New()
	if err := st.Step(value.LabeledScalar(1, -1)); err == nil {
		t.Fatal("negative label accepted")
	}
	if err := st.Step(value.Double(1)); err == nil {
		t.Fatal("unlabeled double accepted")
	}
}

func TestRowMatrix(t *testing.T) {
	got := runAgg(t, "rowmatrix",
		value.LabeledVector(linalg.VectorOf(3, 4), 1),
		value.LabeledVector(linalg.VectorOf(1, 2), 0),
	)
	want, _ := linalg.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if !got.Mat.Equal(want) {
		t.Fatalf("rowmatrix = %v", got)
	}
	// Hole row stays zero.
	got = runAgg(t, "rowmatrix", value.LabeledVector(linalg.VectorOf(5, 6), 2))
	want, _ = linalg.MatrixFromRows([][]float64{{0, 0}, {0, 0}, {5, 6}})
	if !got.Mat.Equal(want) {
		t.Fatalf("rowmatrix holes = %v", got)
	}
}

func TestColMatrix(t *testing.T) {
	got := runAgg(t, "colmatrix",
		value.LabeledVector(linalg.VectorOf(1, 2), 0),
		value.LabeledVector(linalg.VectorOf(3, 4), 1),
	)
	want, _ := linalg.MatrixFromRows([][]float64{{1, 3}, {2, 4}})
	if !got.Mat.Equal(want) {
		t.Fatalf("colmatrix = %v", got)
	}
}

func TestMatrixizeErrors(t *testing.T) {
	spec, _ := LookupAgg("rowmatrix")
	st := spec.New()
	if err := st.Step(value.LabeledVector(linalg.VectorOf(1), 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Step(value.LabeledVector(linalg.VectorOf(1, 2), 1)); err == nil {
		t.Fatal("ragged vectors accepted")
	}
	if err := st.Step(value.Vector(linalg.VectorOf(1))); err == nil {
		t.Fatal("default label -1 accepted")
	}
	if err := st.Step(value.Int(3)); err == nil {
		t.Fatal("int accepted by rowmatrix")
	}
}

func TestAggResultTypes(t *testing.T) {
	sum, _ := LookupAgg("sum")
	if ty, _ := sum.ResultType(types.TInt); ty != types.TInt {
		t.Fatal("SUM(int) type")
	}
	if ty, _ := sum.ResultType(types.TVector(types.KnownDim(5))); ty.String() != "VECTOR[5]" {
		t.Fatal("SUM(vector) type")
	}
	if _, err := sum.ResultType(types.TString); err == nil {
		t.Fatal("SUM(string) accepted")
	}
	cnt, _ := LookupAgg("count")
	if ty, _ := cnt.ResultType(types.TString); ty != types.TInt {
		t.Fatal("COUNT type")
	}
	vz, _ := LookupAgg("vectorize")
	if ty, _ := vz.ResultType(types.TLabeledScalar); ty.String() != "VECTOR[]" {
		t.Fatal("VECTORIZE type")
	}
	if _, err := vz.ResultType(types.TDouble); err == nil {
		t.Fatal("VECTORIZE(double) accepted")
	}
	rm, _ := LookupAgg("rowmatrix")
	if ty, _ := rm.ResultType(types.TVector(types.KnownDim(7))); ty.String() != "MATRIX[][7]" {
		t.Fatal("ROWMATRIX type")
	}
	cm, _ := LookupAgg("colmatrix")
	if ty, _ := cm.ResultType(types.TVector(types.KnownDim(7))); ty.String() != "MATRIX[7][]" {
		t.Fatal("COLMATRIX type")
	}
	avg, _ := LookupAgg("avg")
	if ty, _ := avg.ResultType(types.TInt); ty != types.TDouble {
		t.Fatal("AVG type")
	}
	mn, _ := LookupAgg("min")
	if ty, _ := mn.ResultType(types.TLabeledScalar); ty != types.TDouble {
		t.Fatal("MIN(labeled) type")
	}
	if _, err := mn.ResultType(types.TMatrix(types.UnknownDim, types.UnknownDim)); err == nil {
		t.Fatal("MIN(matrix) accepted")
	}
}

// TestPropMergeEquivalence: splitting any stream of inputs into two halves,
// aggregating separately, and merging must equal aggregating the whole
// stream. This is the invariant that makes distributed pre-aggregation
// correct.
func TestPropMergeEquivalence(t *testing.T) {
	aggs := []string{"sum", "count", "avg", "min", "max"}
	f := func(seed int64, split uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(split%12) + 2
		vals := make([]value.Value, n)
		for i := range vals {
			if r.Intn(6) == 0 {
				vals[i] = value.Null()
			} else {
				vals[i] = value.Double(float64(r.Intn(100)))
			}
		}
		cut := int(split) % n
		for _, name := range aggs {
			spec, _ := LookupAgg(name)
			whole := spec.New()
			for _, v := range vals {
				if err := whole.Step(v); err != nil {
					return false
				}
			}
			left, right := spec.New(), spec.New()
			for _, v := range vals[:cut] {
				_ = left.Step(v)
			}
			for _, v := range vals[cut:] {
				_ = right.Step(v)
			}
			if err := left.Merge(right); err != nil {
				return false
			}
			a, err1 := whole.Final()
			b, err2 := left.Final()
			if err1 != nil || err2 != nil {
				return false
			}
			if a.IsNull() != b.IsNull() {
				return false
			}
			if !a.IsNull() {
				x, _ := a.AsDouble()
				y, _ := b.AsDouble()
				if x != y {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMergeEquivalenceVectorize(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(split%10) + 2
		vals := make([]value.Value, n)
		for i := range vals {
			vals[i] = value.LabeledScalar(r.Float64()*10, int64(i))
		}
		cut := int(split) % n
		spec, _ := LookupAgg("vectorize")
		whole := spec.New()
		for _, v := range vals {
			if err := whole.Step(v); err != nil {
				return false
			}
		}
		left, right := spec.New(), spec.New()
		for _, v := range vals[:cut] {
			_ = left.Step(v)
		}
		for _, v := range vals[cut:] {
			_ = right.Step(v)
		}
		if err := left.Merge(right); err != nil {
			return false
		}
		a, _ := whole.Final()
		b, _ := left.Final()
		return a.Vec.Equal(b.Vec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSumVectorMergeAcrossPartials(t *testing.T) {
	spec, _ := LookupAgg("sum")
	a, b := spec.New(), spec.New()
	_ = a.Step(vec(1, 1))
	_ = b.Step(vec(2, 2))
	_ = b.Step(vec(3, 3))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Final()
	if !got.Equal(vec(6, 6)) {
		t.Fatalf("merged sum = %v", got)
	}
	// Merging an empty partial is a no-op.
	if err := a.Merge(spec.New()); err != nil {
		t.Fatal(err)
	}
	got, _ = a.Final()
	if !got.Equal(vec(6, 6)) {
		t.Fatalf("after empty merge = %v", got)
	}
}

func TestRowMatrixMerge(t *testing.T) {
	spec, _ := LookupAgg("rowmatrix")
	a, b := spec.New(), spec.New()
	_ = a.Step(value.LabeledVector(linalg.VectorOf(1, 2), 0))
	_ = b.Step(value.LabeledVector(linalg.VectorOf(3, 4), 1))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Final()
	want, _ := linalg.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if !got.Mat.Equal(want) {
		t.Fatalf("merged rowmatrix = %v", got)
	}
}

func TestMinMaxVectorsElementwise(t *testing.T) {
	// MIN/MAX over VECTOR aggregate element-wise (block-based distance).
	got := runAgg(t, "min", vec(1, 5, 3), vec(2, 4, 3), vec(0, 9, 9))
	if !got.Equal(vec(0, 4, 3)) {
		t.Fatalf("vector MIN = %v", got)
	}
	got = runAgg(t, "max", vec(1, 5), vec(2, 4))
	if !got.Equal(vec(2, 5)) {
		t.Fatalf("vector MAX = %v", got)
	}
	// Result type propagates the vector type.
	mn, _ := LookupAgg("min")
	if ty, err := mn.ResultType(types.TVector(types.KnownDim(3))); err != nil || ty.String() != "VECTOR[3]" {
		t.Fatalf("MIN(vector) type %v, %v", ty, err)
	}
	// Mixed vector/scalar streams error.
	spec, _ := LookupAgg("min")
	st := spec.New()
	_ = st.Step(vec(1))
	if err := st.Step(value.Double(1)); err == nil {
		t.Fatal("mixed vector/scalar MIN accepted")
	}
	// Length mismatch errors.
	st = spec.New()
	_ = st.Step(vec(1, 2))
	if err := st.Step(vec(1)); err == nil {
		t.Fatal("ragged vector MIN accepted")
	}
	// The aggregated state must not alias its first input.
	v := linalg.VectorOf(5, 5)
	st = spec.New()
	_ = st.Step(value.Vector(v))
	_ = st.Step(vec(1, 9))
	if !v.Equal(linalg.VectorOf(5, 5)) {
		t.Fatal("MIN mutated its input vector")
	}
}

func TestAggVectorMinMerge(t *testing.T) {
	spec, _ := LookupAgg("min")
	a, b := spec.New(), spec.New()
	_ = a.Step(vec(3, 1))
	_ = b.Step(vec(2, 2))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Final()
	if !got.Equal(vec(2, 1)) {
		t.Fatalf("merged vector MIN = %v", got)
	}
}

func TestSumMatrixThenVectorErrors(t *testing.T) {
	spec, _ := LookupAgg("sum")
	st := spec.New()
	_ = st.Step(value.Matrix(linalg.Identity(2)))
	if err := st.Step(vec(1)); err == nil {
		t.Fatal("matrix then vector accepted")
	}
	st = spec.New()
	_ = st.Step(vec(1))
	if err := st.Step(value.Matrix(linalg.Identity(2))); err == nil {
		t.Fatal("vector then matrix accepted")
	}
	// SUM over a string is an error.
	st = spec.New()
	if err := st.Step(value.String_("x")); err == nil {
		t.Fatal("SUM over string accepted")
	}
}

// TestSumStepDoubleNaNPayload: Step and the unboxed StepDouble must agree
// bit for bit even when a SUM meets two different NaNs — the default NaN of
// +Inf + -Inf first, then an input NaN with its own payload.
func TestSumStepDoubleNaNPayload(t *testing.T) {
	in := []float64{1.5, math.Inf(1), math.Inf(-1), math.NaN(), -2.25, math.Copysign(0, -1)}
	boxed, unboxed := &sumState{}, &sumState{}
	for _, x := range in {
		if err := boxed.Step(value.Double(x)); err != nil {
			t.Fatal(err)
		}
		if err := unboxed.StepDouble(x); err != nil {
			t.Fatal(err)
		}
		if b, u := math.Float64bits(boxed.d), math.Float64bits(unboxed.d); b != u {
			t.Fatalf("after %v: Step %#x, StepDouble %#x", x, b, u)
		}
	}
	if !math.IsNaN(boxed.d) {
		t.Fatalf("sum %v, want NaN", boxed.d)
	}
}
