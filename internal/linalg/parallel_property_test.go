package linalg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// withProcs raises GOMAXPROCS for the duration of a test so the parallel
// paths genuinely fan out (and race-test) even on single-core CI boxes —
// planWorkers clamps to GOMAXPROCS, so without this the splits never spawn.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// This file property-tests the tiled/parallel kernel suite against the
// serial reference kernels. The contract is bit-for-bit equality for every
// kernel whose parallel split preserves the per-element accumulation order
// (products, elementwise maps, transpose, min/max) at every worker count,
// with two carve-outs: ParallelSum's fixed-chunk association may differ from
// the plain left-to-right Sum by ordinary rounding (but must be identical
// across worker counts), and empty shapes must still round-trip.

// workerCounts spans serial, even, odd, and oversubscribed splits.
var workerCounts = []int{1, 2, 3, 4, 7, 8}

// genMatDims biases dimensions toward the awkward cases the tiled kernel has
// to get right: 1×N, N×1, sizes straddling the 4-wide k unroll and the 2-row
// microtile, and a size past one column panel.
func genMatDims(raw uint16) int {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 64, 100, 513, 600}
	return dims[int(raw)%len(dims)]
}

// bitsEqual compares matrices by float64 bit pattern, so NaN == NaN: sparse
// inputs drive Div through 0/0 and Equal's != would reject matching NaNs.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.Data {
		if math.Float64bits(x) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// genSparseMat is genMat with a zero-dense mask: the tiled kernel short-cuts
// all-zero coefficient groups, so heavy zero blocks must be exercised.
func genSparseMat(r *rand.Rand, rows, cols int) *Matrix {
	m := genMat(r, rows, cols)
	for i := range m.Data {
		if r.Intn(3) != 0 {
			m.Data[i] = 0
		}
	}
	return m
}

func TestPropTiledMulMatBitExact(t *testing.T) {
	withProcs(t, 8)
	f := func(seed int64, aRaw, bRaw, cRaw uint16, sparse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q, s := genMatDims(aRaw), genMatDims(bRaw), genMatDims(cRaw)
		// Cap the flop count so the property sweep stays fast.
		for p*q*s > 1<<22 {
			p, q, s = (p+1)/2, (q+1)/2, (s+1)/2
		}
		gen := genMat
		if sparse {
			gen = genSparseMat
		}
		A, B := gen(rng, p, q), gen(rng, q, s)
		want, err := RefMulMat(A, B)
		if err != nil {
			return false
		}
		got, err := A.MulMat(B)
		if err != nil {
			return false
		}
		if !got.Equal(want) {
			return false
		}
		for _, w := range workerCounts {
			pw, err := ParallelMulMat(A, B, w)
			if err != nil || !pw.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTiledMulMatEdgeShapes(t *testing.T) {
	withProcs(t, 8)
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ p, q, s int }{
		{1, 1, 1}, {1, 600, 1}, {600, 1, 600}, {1, 1, 600},
		{2, 4, 512}, {3, 5, 513}, {5, 4, 511}, {2, 3, 1},
		{513, 2, 2}, {64, 64, 64}, {65, 67, 69},
	}
	for _, sh := range shapes {
		A, B := genMat(rng, sh.p, sh.q), genMat(rng, sh.q, sh.s)
		want, err := RefMulMat(A, B)
		if err != nil {
			t.Fatal(err)
		}
		got, err := A.MulMat(B)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%dx%d·%dx%d: tiled kernel differs from reference", sh.p, sh.q, sh.q, sh.s)
		}
		for _, w := range workerCounts {
			pw, err := ParallelMulMat(A, B, w)
			if err != nil {
				t.Fatal(err)
			}
			if !pw.Equal(want) {
				t.Fatalf("%dx%d·%dx%d workers=%d: parallel kernel differs", sh.p, sh.q, sh.q, sh.s, w)
			}
		}
	}
}

func TestPropParallelKernelsBitExact(t *testing.T) {
	withProcs(t, 8)
	f := func(seed int64, rRaw, cRaw uint16, sparse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := genMatDims(rRaw), genMatDims(cRaw)
		gen := genMat
		if sparse {
			gen = genSparseMat
		}
		A, B := gen(rng, rows, cols), gen(rng, rows, cols)
		v, u := genVec(rng, cols), genVec(rng, rows)
		wantT := A.Transpose()
		wantMV, _ := A.MulVec(v)
		wantVM, _ := A.VecMul(u)
		wantAdd, _ := A.Add(B)
		wantSub, _ := A.Sub(B)
		wantHad, _ := A.Hadamard(B)
		wantDiv, _ := A.Div(B)
		for _, w := range workerCounts {
			if !ParallelTranspose(A, w).Equal(wantT) {
				return false
			}
			mv, err := ParallelMulVec(A, v, w)
			if err != nil || !mv.Equal(wantMV) {
				return false
			}
			vm, err := ParallelVecMul(A, u, w)
			if err != nil || !vm.Equal(wantVM) {
				return false
			}
			add, err := ParallelAdd(A, B, w)
			if err != nil || !add.Equal(wantAdd) {
				return false
			}
			sub, err := ParallelSub(A, B, w)
			if err != nil || !sub.Equal(wantSub) {
				return false
			}
			had, err := ParallelHadamard(A, B, w)
			if err != nil || !had.Equal(wantHad) {
				return false
			}
			div, err := ParallelDiv(A, B, w)
			if err != nil || !bitsEqual(div, wantDiv) {
				return false
			}
			if ParallelMin(A, w) != A.Min() || ParallelMax(A, w) != A.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropParallelSumInvariant pins ParallelSum's two-part contract: the
// result is identical for every worker count (the fixed-chunk association
// never depends on the split), and it agrees with the serial left-to-right
// Sum within ordinary rounding of the magnitude sum.
func TestPropParallelSumInvariant(t *testing.T) {
	withProcs(t, 8)
	f := func(seed int64, big bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rng.Int31n(1000)) + 1
		if big {
			// Cross several reduceChunk boundaries.
			n = reduceChunk*3 + int(rng.Int31n(reduceChunk))
		}
		m := &Matrix{Rows: 1, Cols: n, Data: genVec(rng, n).Data}
		base := ParallelSum(m, 1)
		for _, w := range workerCounts[1:] {
			if ParallelSum(m, w) != base {
				return false
			}
		}
		var absSum float64
		for _, x := range m.Data {
			absSum += math.Abs(x)
		}
		return math.Abs(base-m.Sum()) <= 1e-12*(absSum+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelKernelsEmptyShapes(t *testing.T) {
	empty := NewMatrix(0, 0)
	if got := ParallelTranspose(empty, 4); got.Rows != 0 || got.Cols != 0 {
		t.Fatalf("transpose of empty: %dx%d", got.Rows, got.Cols)
	}
	if s := ParallelSum(empty, 4); s != 0 {
		t.Fatalf("sum of empty: %v", s)
	}
	if mn := ParallelMin(empty, 4); !math.IsInf(mn, 1) {
		t.Fatalf("min of empty: %v", mn)
	}
	if mx := ParallelMax(empty, 4); !math.IsInf(mx, -1) {
		t.Fatalf("max of empty: %v", mx)
	}
	out, err := ParallelMulMat(NewMatrix(0, 5), NewMatrix(5, 0), 4)
	if err != nil || out.Rows != 0 || out.Cols != 0 {
		t.Fatalf("0x5·5x0: %v %v", out, err)
	}
}

func TestParallelKernelShapeErrors(t *testing.T) {
	a, b := NewMatrix(2, 3), NewMatrix(2, 3)
	if _, err := ParallelMulMat(a, b, 2); err == nil {
		t.Fatal("2x3·2x3 should fail")
	}
	if _, err := ParallelMulVec(a, NewVector(2), 2); err == nil {
		t.Fatal("MulVec length mismatch should fail")
	}
	if _, err := ParallelVecMul(a, NewVector(3), 2); err == nil {
		t.Fatal("VecMul length mismatch should fail")
	}
	if _, err := ParallelAdd(a, NewMatrix(3, 2), 2); err == nil {
		t.Fatal("add shape mismatch should fail")
	}
}
