package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// rankKRows draws k finite rows of length n: wide magnitudes so summation
// order shows in the low bits, and exact zeros of both signs.
func rankKRows(r *rand.Rand, k, n int) [][]float64 {
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			switch r.Intn(8) {
			case 0:
				rows[i][j] = 0
			case 1:
				rows[i][j] = math.Copysign(0, -1)
			default:
				rows[i][j] = (r.Float64()*2 - 1) * math.Pow(2, float64(r.Intn(40)-20))
			}
		}
	}
	return rows
}

// rankKStart is a non-zero starting accumulator (symmetric when sym), so the
// test also covers updates onto earlier windows' partial sums.
func rankKStart(r *rand.Rand, m, n int, sym bool) *Matrix {
	dst := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if sym && j < i {
				dst.Set(i, j, dst.At(j, i))
				continue
			}
			dst.Set(i, j, r.Float64()*8-4)
		}
	}
	return dst
}

// perRowReference accumulates the same update one OuterAddInto per row.
func perRowReference(t *testing.T, dst *Matrix, a, b [][]float64) *Matrix {
	t.Helper()
	ref := dst.Clone()
	for r := range a {
		if err := (&Vector{Data: a[r]}).OuterAddInto(ref, &Vector{Data: b[r]}); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// TestRankKAddIntoMatchesPerRow pins the order contract: the register-blocked
// update, symmetric (same slice for a and b) and general, is bit-equal to
// successive OuterAddInto calls over every shape the blocking has a tail
// in — dimensions 1..9, 37 and 200, row counts 0..9 (not multiples of 4),
// and a deep and a wide case that cross the k and column panels.
func TestRankKAddIntoMatchesPerRow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 200}
	type shape struct{ m, n, k int }
	var shapes []shape
	for _, d := range dims {
		for k := 0; k <= 9; k++ {
			shapes = append(shapes, shape{d, d, k})
			shapes = append(shapes, shape{d, dims[(k+3)%len(dims)], k})
		}
	}
	shapes = append(shapes, shape{37, 37, 300}, shape{3, 600, 7}, shape{5, 600, 130})
	for _, sh := range shapes {
		a := rankKRows(r, sh.k, sh.m)
		// Symmetric: b is a itself.
		if sh.m == sh.n {
			dst := rankKStart(r, sh.m, sh.m, true)
			want := perRowReference(t, dst, a, a)
			if err := RankKAddInto(dst, a, a); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(dst, want) {
				t.Fatalf("symmetric d=%d k=%d: differs from per-row accumulation", sh.m, sh.k)
			}
		}
		// General: distinct operands.
		b := rankKRows(r, sh.k, sh.n)
		dst := rankKStart(r, sh.m, sh.n, false)
		want := perRowReference(t, dst, a, b)
		if err := RankKAddInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(dst, want) {
			t.Fatalf("general %dx%d k=%d: differs from per-row accumulation", sh.m, sh.n, sh.k)
		}
	}
}

// TestRankKAddIntoShapeErrors rejects operands that disagree with dst or
// with each other.
func TestRankKAddIntoShapeErrors(t *testing.T) {
	dst := NewMatrix(2, 3)
	cases := map[string][2][][]float64{
		"row counts":  {{{1, 2}}, {}},
		"left width":  {{{1, 2, 3}}, {{1, 2, 3}}},
		"right width": {{{1, 2}}, {{1, 2}}},
	}
	for name, c := range cases {
		if err := RankKAddInto(dst, c[0], c[1]); err == nil {
			t.Errorf("%s: mismatch accepted", name)
		}
	}
}

// TestAllFiniteScreensNonFinite: the screen that routes a window to the
// per-row path must catch a NaN (any payload) or ±Inf anywhere, and must
// pass finite values including ±0 and extremes.
func TestAllFiniteScreensNonFinite(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	finite := rankKRows(r, 5, 9)
	finite[2][4] = math.MaxFloat64
	finite[3][1] = -math.SmallestNonzeroFloat64
	if !AllFinite(finite) || !AllFinite(nil) {
		t.Fatal("finite rows screened out")
	}
	bad := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN payload
		math.Float64frombits(0xfff8000000000abc), // negative quiet NaN payload
	}
	for _, x := range bad {
		for i := range finite {
			for j := range finite[i] {
				old := finite[i][j]
				finite[i][j] = x
				if AllFinite(finite) {
					t.Fatalf("%v at (%d,%d) passed the screen", x, i, j)
				}
				finite[i][j] = old
			}
		}
	}
}
