package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refInverse is plain Gauss-Jordan elimination with partial pivoting that
// updates whole rows of both the working copy and the inverse. Inverse must
// return the same bits: it only skips work on columns never read again.
func refInverse(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: inverse of non-square %dx%d matrix", ErrShape, m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		pivot, pmax := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a.At(r, col)); abs > pmax {
				pivot, pmax = r, abs
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("linalg: matrix_inverse of singular matrix (pivot %d)", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		scaleRow(a, col, 1/p)
		scaleRow(inv, col, 1/p)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			refAxpyRow(a, r, col, -f)
			refAxpyRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

func refAxpyRow(m *Matrix, dst, src int, f float64) {
	rd, rs := m.Row(dst), m.Row(src)
	for k := range rd {
		rd[k] += f * rs[k]
	}
}

// sameInverse checks that Inverse and refInverse agree bit for bit, errors
// included.
func sameInverse(t *testing.T, name string, m *Matrix) {
	t.Helper()
	in := m.Clone()
	got, gerr := m.Inverse()
	want, werr := refInverse(m)
	for i := range in.Data {
		if math.Float64bits(m.Data[i]) != math.Float64bits(in.Data[i]) {
			t.Fatalf("%s: Inverse modified its input", name)
		}
	}
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
	}
	if gerr != nil {
		return
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", name, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func TestInverseBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 200} {
		// Random entries make partial pivoting swap rows at most steps.
		m := NewMatrix(d, d)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		sameInverse(t, fmt.Sprintf("random d=%d", d), m)

		// A Gram matrix, the regression workload's input.
		x := NewMatrix(3*d, d)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		g, err := x.Transpose().MulMat(x)
		if err != nil {
			t.Fatal(err)
		}
		sameInverse(t, fmt.Sprintf("gram d=%d", d), g)

		// Negative diagonal, zero elsewhere: the pivot row's zeros become
		// -0 when scaled, and the sign must survive.
		neg := NewMatrix(d, d)
		for i := 0; i < d; i++ {
			neg.Set(i, i, -float64(i+2))
		}
		sameInverse(t, fmt.Sprintf("negative diagonal d=%d", d), neg)
	}
}

func TestInverseBitIdenticalEdgeCases(t *testing.T) {
	cases := map[string][][]float64{
		// Zero leading pivot: the first step must swap.
		"swap":        {{0, 2, 1}, {3, 0, 4}, {5, 6, 0}},
		"permutation": {{0, 0, 1}, {1, 0, 0}, {0, 1, 0}},
		// Negative pivots with exact zeros in their rows and columns.
		"negative pivots": {{-4, 0, 0, 1}, {0, -2, 0, 0}, {1, 0, -8, 0}, {0, 0, 0, -1}},
		"signed zeros":    {{-1, math.Copysign(0, -1)}, {0, -3}},
		"singular":        {{1, 2}, {2, 4}},
		"singular late":   {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		"zero":            {{0, 0}, {0, 0}},
		"nan":             {{math.NaN(), 1}, {1, 2}},
		"inf":             {{math.Inf(1), 1}, {1, 2}},
		"one by one neg":  {{-2}},
	}
	for name, rows := range cases {
		sameInverse(t, name, mustMatrix(t, rows))
	}
	if _, err := mustMatrix(t, [][]float64{{1, 2}, {2, 4}}).Inverse(); err == nil {
		t.Fatal("inverse of singular matrix succeeded")
	}
}

func BenchmarkInverse200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := NewMatrix(600, 200)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g, err := x.Transpose().MulMat(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}
