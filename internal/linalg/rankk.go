package linalg

import "fmt"

// RankKAddInto accumulates the rank-k update Σ_r a[r] b[r]ᵀ into dst, which
// must be len(a[r]) × len(b[r]) for every r. It is the window kernel behind
// SUM(outer_product(x, y)) (one row per input vector) and
// SUM(matrix_multiply(trans_matrix(A), B)) (the rows of every block, since
// AᵀB = Σ_k A[k]ᵀ B[k]), so a block's transpose is never materialized.
//
// The kernel is register-blocked 2×4 like the tiled multiply: two output rows
// share four streamed rows of b, and four r steps amortize the load and
// store of each output element. Per output element the terms still add left
// to right in ascending r, so the result is bit-for-bit the result of
// len(a) successive OuterAddInto calls.
//
// When a and b are the same slice (a Gram matrix, Σ_r x_r x_rᵀ), only the
// upper triangle j ≥ i is computed and then mirrored. That is exact only if
// dst is symmetric on entry and every operand is finite (x_i·x_j == x_j·x_i
// bit for bit, which NaN payloads break); callers screen with AllFinite and
// fall back to OuterAddInto otherwise. Pass distinct slices to force the
// full computation.
func RankKAddInto(dst *Matrix, a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: rank-k update with %d left rows and %d right rows", ErrShape, len(a), len(b))
	}
	for r := range a {
		if len(a[r]) != dst.Rows || len(b[r]) != dst.Cols {
			return fmt.Errorf("%w: outer accumulate %dx%d into %dx%d", ErrShape, len(a[r]), len(b[r]), dst.Rows, dst.Cols)
		}
	}
	sym := len(a) > 0 && &a[0] == &b[0]
	for p0 := 0; p0 < dst.Cols; p0 += mulPanelCols {
		p1 := min(p0+mulPanelCols, dst.Cols)
		for k0 := 0; k0 < len(a); k0 += mulPanelK {
			k1 := min(k0+mulPanelK, len(a))
			rankKBlock(dst, a, b, p0, p1, k0, k1, sym)
		}
	}
	if sym {
		n := dst.Cols
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dst.Data[j*n+i] = dst.Data[i*n+j]
			}
		}
	}
	return nil
}

// rankKBlock accumulates rows [k0, k1) of the update into columns [p0, p1)
// of dst; with sym, row i only gets columns from i on (its pair row i+1
// also gets column i, which the mirror overwrites with the same value).
func rankKBlock(dst *Matrix, a, b [][]float64, p0, p1, k0, k1 int, sym bool) {
	n := dst.Cols
	var i int
	for i = 0; i+2 <= dst.Rows; i += 2 {
		lo := p0
		if sym {
			lo = max(lo, i)
		}
		if lo >= p1 {
			continue
		}
		or0 := dst.Data[i*n+lo : i*n+p1]
		or1 := dst.Data[(i+1)*n+lo : (i+1)*n+p1]
		_ = or1[len(or0)-1]
		var k int
		for k = k0; k+4 <= k1; k += 4 {
			ar0, ar1, ar2, ar3 := a[k], a[k+1], a[k+2], a[k+3]
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			c0, c1, c2, c3 := ar0[i+1], ar1[i+1], ar2[i+1], ar3[i+1]
			n0, n1, n2, n3 := b[k][lo:p1], b[k+1][lo:p1], b[k+2][lo:p1], b[k+3][lo:p1]
			// Anchor the shared panel length so the compiler drops the
			// bounds checks inside the hot loop.
			_ = n0[len(or0)-1]
			_ = n1[len(or0)-1]
			_ = n2[len(or0)-1]
			_ = n3[len(or0)-1]
			for j := range or0 {
				v0, v1, v2, v3 := n0[j], n1[j], n2[j], n3[j]
				or0[j] = or0[j] + a0*v0 + a1*v1 + a2*v2 + a3*v3
				or1[j] = or1[j] + c0*v0 + c1*v1 + c2*v2 + c3*v3
			}
		}
		for ; k < k1; k++ {
			x, y := a[k][i], a[k][i+1]
			nrow := b[k][lo:p1]
			_ = nrow[len(or0)-1]
			for j := range or0 {
				v := nrow[j]
				or0[j] += x * v
				or1[j] += y * v
			}
		}
	}
	for ; i < dst.Rows; i++ {
		lo := p0
		if sym {
			lo = max(lo, i)
		}
		if lo >= p1 {
			continue
		}
		orow := dst.Data[i*n+lo : i*n+p1]
		var k int
		for k = k0; k+4 <= k1; k += 4 {
			a0, a1, a2, a3 := a[k][i], a[k+1][i], a[k+2][i], a[k+3][i]
			n0, n1, n2, n3 := b[k][lo:p1], b[k+1][lo:p1], b[k+2][lo:p1], b[k+3][lo:p1]
			_ = n0[len(orow)-1]
			_ = n1[len(orow)-1]
			_ = n2[len(orow)-1]
			_ = n3[len(orow)-1]
			for j := range orow {
				orow[j] = orow[j] + a0*n0[j] + a1*n1[j] + a2*n2[j] + a3*n3[j]
			}
		}
		for ; k < k1; k++ {
			x := a[k][i]
			nrow := b[k][lo:p1]
			_ = nrow[len(orow)-1]
			for j := range orow {
				orow[j] += x * nrow[j]
			}
		}
	}
}

// AllFinite reports whether every entry of rows is finite (neither NaN nor
// ±Inf): the precondition under which RankKAddInto's register blocking and
// symmetric mirror reproduce per-row accumulation bit for bit.
func AllFinite(rows [][]float64) bool {
	for _, row := range rows {
		for _, x := range row {
			if x-x != 0 {
				return false
			}
		}
	}
	return true
}
