package main

import (
	"errors"
	"fmt"
	"math"

	"relalg/internal/core"
	"relalg/internal/linalg"
	"relalg/internal/value"
	"relalg/internal/workload"
)

// regressionNoise is the standard deviation of the noise on the regression
// targets.
const regressionNoise = 0.01

// gramTol is the relative Frobenius tolerance of a Gram matrix or Xᵀy
// against the Go reference: only summation order differs.
const gramTol = 1e-9

// laDense is Figures 1–3 in the vector and block layouts at a
// dimensionality where the linear-algebra kernels dominate: fused
// SUM(outer_product) and SUM(matrix_multiply) Gram and regression over
// tables hash-partitioned on their join keys, and the metric distance over
// b×b tiles.
func laDense(e *env) (*serialSpec, error) {
	n, d, b, nd := laDenseSizes(e.smoke)
	data := workload.DenseVectors(e.seed, n, d)
	beta := workload.Beta(e.seed+1, d)
	yRows := workload.RegressionTargets(e.seed+2, data, beta, regressionNoise)
	points, metric := distanceInputs(e.seed, nd, d)

	xb, err := workload.BlockRows(data, b)
	if err != nil {
		return nil, err
	}
	xd, err := workload.BlockRows(points, b)
	if err != nil {
		return nil, err
	}
	yb := make([]value.Row, 0, n/b)
	for start := 0; start < n; start += b {
		v := linalg.NewVector(b)
		for i := range v.Data {
			v.Data[i] = yRows[start+i][1].D
		}
		yb = append(yb, value.Row{value.Int(int64(start / b)), value.Vector(v)})
	}
	xv := workload.VectorRows(data)
	am := []value.Row{{value.Matrix(metric)}}

	gram := refGram(data)
	xty := refXty(data, yRows)
	ols, err := gram.Solve(xty)
	if err != nil {
		return nil, err
	}
	betaTol := 20 * regressionNoise * math.Sqrt(3/float64(n))
	if err := within(ols.Data, beta, betaTol); err != nil {
		return nil, fmt.Errorf("reference least squares misses the generating beta: %w", err)
	}
	far, farDist := refDistance(points, metric)

	fn, fd, fnd := float64(n), float64(d), float64(nd)
	gramFlops := fn * fd * fd
	regFlops := gramFlops + fn*fd + fd*fd*fd + fd*fd
	distFlops := fnd*fd*fd + fnd*fnd*fd + fnd*fnd
	regCheck := func(res *core.Result) error {
		got, err := oneVector(res)
		if err != nil {
			return err
		}
		if err := relClose(got.Data, ols.Data, 1e-6); err != nil {
			return fmt.Errorf("coefficients vs least squares: %w", err)
		}
		return within(got.Data, beta, betaTol)
	}
	stmts := []stmt{
		{name: "gram_vector", flops: gramFlops, check: gramCheck(gram),
			sql: `SELECT SUM(outer_product(x.value, x.value)) FROM xv AS x`},
		{name: "gram_block", flops: gramFlops, check: gramCheck(gram),
			sql: `SELECT SUM(matrix_multiply(trans_matrix(x.m), x.m)) FROM xb AS x`},
		{name: "regression_vector", flops: regFlops, check: regCheck,
			sql: `SELECT matrix_vector_multiply(matrix_inverse(SUM(outer_product(x.value, x.value))), SUM(x.value * yt.y_i))
				FROM xv AS x, yt WHERE x.id = yt.i`},
		{name: "regression_block", flops: regFlops, check: regCheck,
			sql: `SELECT matrix_vector_multiply(matrix_inverse(SUM(matrix_multiply(trans_matrix(x.m), x.m))),
					SUM(matrix_vector_multiply(trans_matrix(x.m), y.v)))
				FROM xb AS x, yb AS y WHERE x.mi = y.mi`},
		{name: "distance_block", flops: distFlops, check: distanceCheck(far, farDist),
			sql: fmt.Sprintf(`SELECT p.mi * %d + arg_max(p.mins) AS point, max_vector(p.mins) AS dist
				FROM (%s) AS p
				ORDER BY max_vector(p.mins) DESC LIMIT 1`, b, distanceMinsSQL(b))},
	}
	return &serialSpec{
		config: baseConfig(),
		stmts:  stmts,
		setup: func(db *core.Database, load loadFunc) error {
			for _, ddl := range []string{
				"CREATE TABLE xv (id INTEGER, value VECTOR[]) PARTITION BY HASH(id)",
				"CREATE TABLE yt (i INTEGER, y_i DOUBLE) PARTITION BY HASH(i)",
				"CREATE TABLE xb (mi INTEGER, m MATRIX[][]) PARTITION BY HASH(mi)",
				"CREATE TABLE yb (mi INTEGER, v VECTOR[]) PARTITION BY HASH(mi)",
				"CREATE TABLE xd (mi INTEGER, m MATRIX[][])",
				"CREATE TABLE am (val MATRIX[][])",
			} {
				if err := db.Exec(ddl); err != nil {
					return err
				}
			}
			return loadAll(load, []string{"xv", "yt", "xb", "yb", "xd", "am"}, xv, yRows, xb, yb, xd, am)
		},
	}, nil
}

// laDenseSizes is n rows of dimension d in blocks of b rows, and nd points
// for the distance task.
func laDenseSizes(smoke bool) (n, d, b, nd int) {
	if smoke {
		return 120, 6, 20, 60
	}
	return 4000, 200, 100, 800
}

// distanceInputs generates the distance task's points and metric matrix.
func distanceInputs(seed int64, nd, d int) ([][]float64, *linalg.Matrix) {
	return workload.DenseVectors(seed+3, nd, d), workload.MetricMatrix(seed+4, d)
}

// distanceMinsSQL gives, per block mi of xd, the vector whose entry i is
// the smallest x_pᵀ A x_q over q ≠ p for point p = mi·b + i. Tiles pair
// every block with every block; the diagonal of the tile that pairs a block
// with itself is raised by 1e300 to leave out q = p. The same-block
// indicator 1/(1+(i-j)²) stays in INTEGER arithmetic, where the division
// truncates to 0 unless i = j (abs returns DOUBLE, which would make it a
// fraction and mask the same offset in every block).
func distanceMinsSQL(b int) string {
	return fmt.Sprintf(`SELECT x1.mi AS mi,
			MIN(row_mins(matrix_multiply(matrix_multiply(x1.m, a.val), trans_matrix(x2.m))
				+ identity_matrix(%d) * (1e300 * (1 / (1 + (x1.mi - x2.mi) * (x1.mi - x2.mi)))))) AS mins
		FROM xd AS x1, xd AS x2, am AS a GROUP BY x1.mi`, b)
}

// laTuple is Figures 1–2 in the tuple layout at low dimensionality: Gram
// and Xᵀy as a self-join plus GROUP BY over (row_index, col_index, value).
// One cycle is the Gram figure, then the regression figure's Gram and Xᵀy
// (the client solves the small system).
func laTuple(e *env) (*serialSpec, error) {
	n, d := 1000, 16
	if e.smoke {
		n, d = 60, 4
	}
	data := workload.DenseVectors(e.seed, n, d)
	beta := workload.Beta(e.seed+1, d)
	yRows := workload.RegressionTargets(e.seed+2, data, beta, regressionNoise)
	xt := workload.TupleRows(data)
	gram := refGram(data)
	xty := refXty(data, yRows)
	ols, err := gram.Solve(xty)
	if err != nil {
		return nil, err
	}
	if err := within(ols.Data, beta, 20*regressionNoise*math.Sqrt(3/float64(n))); err != nil {
		return nil, fmt.Errorf("reference least squares misses the generating beta: %w", err)
	}
	const gramSQL = `SELECT x1.col_index, x2.col_index, SUM(x1.value * x2.value)
		FROM xt AS x1, xt AS x2
		WHERE x1.row_index = x2.row_index
		GROUP BY x1.col_index, x2.col_index`
	stmts := []stmt{
		{name: "gram_tuple", sql: gramSQL, check: tupleGramCheck(gram)},
		{name: "regression_gram_tuple", sql: gramSQL, check: tupleGramCheck(gram)},
		{name: "regression_xty_tuple", check: tupleXtyCheck(xty),
			sql: `SELECT x.col_index, SUM(x.value * yt.y_i)
				FROM xt AS x, yt
				WHERE x.row_index = yt.i
				GROUP BY x.col_index`},
	}
	return &serialSpec{
		config: baseConfig(),
		stmts:  stmts,
		setup: func(db *core.Database, load loadFunc) error {
			for _, ddl := range []string{
				"CREATE TABLE xt (row_index INTEGER, col_index INTEGER, value DOUBLE)",
				"CREATE TABLE yt (i INTEGER, y_i DOUBLE)",
			} {
				if err := db.Exec(ddl); err != nil {
					return err
				}
			}
			return loadAll(load, []string{"xt", "yt"}, xt, yRows)
		},
	}, nil
}

func loadAll(load loadFunc, tables []string, rows ...[]value.Row) error {
	for i, t := range tables {
		if err := load(t, rows[i]); err != nil {
			return fmt.Errorf("loading %s: %w", t, err)
		}
	}
	return nil
}

// refGram is XᵀX computed directly in Go.
func refGram(data [][]float64) *linalg.Matrix {
	d := len(data[0])
	g := linalg.NewMatrix(d, d)
	for _, x := range data {
		for i, xi := range x {
			row := g.Data[i*d : (i+1)*d]
			for j, xj := range x {
				row[j] += xi * xj
			}
		}
	}
	return g
}

// refXty is Xᵀy computed directly in Go.
func refXty(data [][]float64, y []value.Row) *linalg.Vector {
	v := linalg.NewVector(len(data[0]))
	for i, x := range data {
		for j, xj := range x {
			v.Data[j] += xj * y[i][1].D
		}
	}
	return v
}

// refDistance brute-forces the distance task: the point whose smallest
// x_pᵀ A x_q over q ≠ p is largest.
func refDistance(points [][]float64, a *linalg.Matrix) (int, float64) {
	best, bestDist := -1, math.Inf(-1)
	for p, mn := range refMins(points, a) {
		if mn > bestDist {
			best, bestDist = p, mn
		}
	}
	return best, bestDist
}

// refMins is, for each point p, the smallest x_pᵀ A x_q over q ≠ p.
func refMins(points [][]float64, a *linalg.Matrix) []float64 {
	d := a.Cols
	mins := make([]float64, len(points))
	xa := make([]float64, d)
	for p, xp := range points {
		for l := range xa {
			xa[l] = 0
		}
		for k, xk := range xp {
			row := a.Data[k*d : (k+1)*d]
			for l, akl := range row {
				xa[l] += xk * akl
			}
		}
		mn := math.Inf(1)
		for q, xq := range points {
			if q == p {
				continue
			}
			var s float64
			for l, v := range xq {
				s += xa[l] * v
			}
			mn = math.Min(mn, s)
		}
		mins[p] = mn
	}
	return mins
}

func gramCheck(ref *linalg.Matrix) func(*core.Result) error {
	return func(res *core.Result) error {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Kind != value.KindMatrix {
			return errors.New("want one MATRIX value")
		}
		m := res.Rows[0][0].Mat
		if m.Rows != ref.Rows || m.Cols != ref.Cols {
			return fmt.Errorf("shape %dx%d, want %dx%d", m.Rows, m.Cols, ref.Rows, ref.Cols)
		}
		return relClose(m.Data, ref.Data, gramTol)
	}
}

func oneVector(res *core.Result) (*linalg.Vector, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Kind != value.KindVector {
		return nil, errors.New("want one VECTOR value")
	}
	return res.Rows[0][0].Vec, nil
}

func distanceCheck(point int, dist float64) func(*core.Result) error {
	return func(res *core.Result) error {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
			return fmt.Errorf("want one (point, dist) row, got %d rows", len(res.Rows))
		}
		p, err1 := res.Rows[0][0].AsInt()
		v, err2 := res.Rows[0][1].AsDouble()
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if int(p) != point {
			return fmt.Errorf("farthest point %d, brute force says %d", p, point)
		}
		return relClose([]float64{v}, []float64{dist}, gramTol)
	}
}

// tupleGramCheck reads (i, j, value) rows into a matrix and compares it.
func tupleGramCheck(ref *linalg.Matrix) func(*core.Result) error {
	return func(res *core.Result) error {
		if len(res.Rows) != ref.Rows*ref.Cols {
			return fmt.Errorf("%d tuples, want %d", len(res.Rows), ref.Rows*ref.Cols)
		}
		m := linalg.NewMatrix(ref.Rows, ref.Cols)
		for _, r := range res.Rows {
			i, j, v, err := cell(r, 3)
			if err != nil {
				return err
			}
			if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
				return fmt.Errorf("tuple (%d, %d) outside %dx%d", i, j, m.Rows, m.Cols)
			}
			m.Set(i, j, v)
		}
		return relClose(m.Data, ref.Data, gramTol)
	}
}

// tupleXtyCheck reads (j, value) rows into a vector and compares it.
func tupleXtyCheck(ref *linalg.Vector) func(*core.Result) error {
	return func(res *core.Result) error {
		if len(res.Rows) != len(ref.Data) {
			return fmt.Errorf("%d tuples, want %d", len(res.Rows), len(ref.Data))
		}
		got := make([]float64, len(ref.Data))
		for _, r := range res.Rows {
			j, _, v, err := cell(r, 2)
			if err != nil {
				return err
			}
			if j < 0 || j >= len(got) {
				return fmt.Errorf("index %d outside %d", j, len(got))
			}
			got[j] = v
		}
		return relClose(got, ref.Data, gramTol)
	}
}

// cell decodes a (i, [j,] value) tuple of width 2 or 3.
func cell(r value.Row, width int) (i, j int, v float64, err error) {
	if len(r) != width {
		return 0, 0, 0, fmt.Errorf("tuple of width %d, want %d", len(r), width)
	}
	i64, err1 := r[0].AsInt()
	var j64 int64
	var err2 error
	if width == 3 {
		j64, err2 = r[1].AsInt()
	}
	v, err3 := r[width-1].AsDouble()
	return int(i64), int(j64), v, errors.Join(err1, err2, err3)
}

// relClose compares got and want by relative Frobenius distance.
func relClose(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	var diff, norm float64
	for i := range got {
		diff += (got[i] - want[i]) * (got[i] - want[i])
		norm += want[i] * want[i]
	}
	if rel := math.Sqrt(diff / math.Max(norm, math.SmallestNonzeroFloat64)); !(rel <= tol) {
		return fmt.Errorf("relative error %.3g exceeds %.3g", rel, tol)
	}
	return nil
}

// within checks every |got_i - want_i| <= tol.
func within(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= tol) {
			return fmt.Errorf("entry %d is %.6g, want %.6g within %.3g", i, got[i], want[i], tol)
		}
	}
	return nil
}
