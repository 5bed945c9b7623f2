package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"relalg/internal/cluster"
	"relalg/internal/opt"
	"relalg/internal/value"
)

// TestOptimizerResultEquivalence runs a battery of queries under four
// optimizer configurations (full, size-blind, no eager projection, both off)
// and requires identical result multisets: the optimizer may change plans,
// never answers.
func TestOptimizerResultEquivalence(t *testing.T) {
	configs := map[string]opt.Options{
		"full":     opt.DefaultOptions(),
		"blind":    {SizeAwareCosting: false, EagerProjection: true, DefaultDim: 100, MaxDPRelations: 10},
		"no-eager": {SizeAwareCosting: true, EagerProjection: false, DefaultDim: 100, MaxDPRelations: 10},
		"neither":  {SizeAwareCosting: false, EagerProjection: false, DefaultDim: 100, MaxDPRelations: 10},
		"greedy":   {SizeAwareCosting: true, EagerProjection: true, DefaultDim: 100, MaxDPRelations: 1},
	}

	queries := []string{
		`SELECT a.id, a.v + b.v AS s FROM ta AS a, tb AS b WHERE a.id = b.id`,
		`SELECT a.grp, SUM(a.v * b.v), COUNT(*) FROM ta AS a, tb AS b WHERE a.id = b.id GROUP BY a.grp`,
		`SELECT a.id FROM ta AS a, tb AS b, tc AS c WHERE a.id = b.id AND b.id = c.id`,
		`SELECT a.grp, MIN(b.v), MAX(b.v) FROM ta AS a, tb AS b WHERE a.grp = b.grp GROUP BY a.grp`,
		`SELECT SUM(outer_product(x.vec, x.vec)) FROM tv AS x`,
		`SELECT x1.id, inner_product(x1.vec, x2.vec) AS ip FROM tv AS x1, tv AS x2 WHERE x1.id <> x2.id AND x1.id < 3`,
		`SELECT a.grp, COUNT(*) FROM ta AS a WHERE a.v > 0.2 GROUP BY a.grp HAVING COUNT(*) > 1`,
		`SELECT a.id, b.id FROM ta AS a, tb AS b WHERE a.v = b.v`,
	}

	results := map[string][][]string{}
	for name, opts := range configs {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
		cfg.Optimizer = opts
		db := Open(cfg)
		loadEquivalenceTables(t, db)
		var all [][]string
		for _, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			all = append(all, canonicalRows(res.Rows))
		}
		results[name] = all
	}

	base := results["full"]
	for name, got := range results {
		for qi := range base {
			if len(got[qi]) != len(base[qi]) {
				t.Fatalf("%s: query %d row count %d, want %d", name, qi, len(got[qi]), len(base[qi]))
			}
			for ri := range base[qi] {
				if got[qi][ri] != base[qi][ri] {
					t.Fatalf("%s: query %d row %d:\n got %s\nwant %s", name, qi, ri, got[qi][ri], base[qi][ri])
				}
			}
		}
	}
}

func loadEquivalenceTables(t *testing.T, db *Database) {
	t.Helper()
	db.MustExec(`CREATE TABLE ta (id INTEGER, grp INTEGER, v DOUBLE)`)
	db.MustExec(`CREATE TABLE tb (id INTEGER, grp INTEGER, v DOUBLE)`)
	db.MustExec(`CREATE TABLE tc (id INTEGER)`)
	db.MustExec(`CREATE TABLE tv (id INTEGER, vec VECTOR[4])`)
	// All data is small-integer valued so every sum is exact in float64:
	// the tests compare formatted values across plans whose merge orders
	// differ, and non-associativity of float addition must not bite.
	var ra, rb, rc, rv []value.Row
	for i := 0; i < 40; i++ {
		ra = append(ra, value.Row{value.Int(int64(i)), value.Int(int64(i % 4)), value.Double(float64(i % 7))})
		rb = append(rb, value.Row{value.Int(int64(i + 10)), value.Int(int64(i % 3)), value.Double(float64(i % 5))})
		if i%2 == 0 {
			rc = append(rc, value.Row{value.Int(int64(i))})
		}
	}
	for i := 0; i < 8; i++ {
		vec := make([]float64, 4)
		for j := range vec {
			vec[j] = float64((i*(j+2))%9) - 4
		}
		rv = append(rv, value.Row{value.Int(int64(i)), VectorValue(vec...)})
	}
	for name, rows := range map[string][]value.Row{"ta": ra, "tb": rb, "tc": rc, "tv": rv} {
		if err := db.LoadTable(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// canonicalRows renders rows as sorted strings for order-insensitive
// comparison.
func canonicalRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

// TestSerializationDoesNotChangeResults runs the same queries with and
// without shuffle serialization: the A3 ablation must be performance-only.
func TestSerializationDoesNotChangeResults(t *testing.T) {
	var versions [][][]string
	for _, serialize := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: serialize}
		db := Open(cfg)
		loadEquivalenceTables(t, db)
		var all [][]string
		for _, q := range []string{
			`SELECT a.id, b.v FROM ta AS a, tb AS b WHERE a.id = b.id`,
			`SELECT grp, SUM(v) FROM ta GROUP BY grp`,
			`SELECT SUM(outer_product(vec, vec)) FROM tv`,
		} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, canonicalRows(res.Rows))
		}
		versions = append(versions, all)
	}
	for qi := range versions[0] {
		if len(versions[0][qi]) != len(versions[1][qi]) {
			t.Fatalf("query %d row counts differ", qi)
		}
		for ri := range versions[0][qi] {
			if versions[0][qi][ri] != versions[1][qi][ri] {
				t.Fatalf("query %d row %d differs between serialization modes", qi, ri)
			}
		}
	}
}

// TestClusterShapeInvariance: the same query on different cluster shapes
// (1×1, 2×2, 5×3) returns identical results — partitioning is invisible.
func TestClusterShapeInvariance(t *testing.T) {
	shapes := [][2]int{{1, 1}, {2, 2}, {5, 3}}
	var versions [][]string
	for _, s := range shapes {
		cfg := DefaultConfig()
		cfg.Cluster = cluster.Config{Nodes: s[0], PartitionsPerNode: s[1], SerializeShuffles: true}
		db := Open(cfg)
		loadEquivalenceTables(t, db)
		res, err := db.Query(`SELECT a.grp, SUM(a.v * b.v), COUNT(*)
			FROM ta AS a, tb AS b WHERE a.id = b.id GROUP BY a.grp`)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, canonicalRows(res.Rows))
	}
	for i := 1; i < len(versions); i++ {
		if len(versions[i]) != len(versions[0]) {
			t.Fatalf("shape %v: row count %d, want %d", shapes[i], len(versions[i]), len(versions[0]))
		}
		for ri := range versions[0] {
			if versions[i][ri] != versions[0][ri] {
				t.Fatalf("shape %v row %d: %s != %s", shapes[i], ri, versions[i][ri], versions[0][ri])
			}
		}
	}
}

// TestEagerSubExpressionBitIdentical: a product over one side of a join runs
// once per row of that side when eager projection moves it below the join,
// and once per joined pair without it. The same builtin sees the same
// operands either way, so every result must be byte-identical — NULL
// matrices, NaN, ±Inf and -0 entries included — at every window size. The
// full configuration must actually compute the sub-expression below the
// join, or the comparison would be vacuous.
func TestEagerSubExpressionBitIdentical(t *testing.T) {
	queries := []struct{ sql, hoisted string }{
		// Three-way cross join, product over am and one copy of xd.
		{`SELECT x1.mi, x2.mi, row_mins(matrix_multiply(x1.m, matrix_multiply(a.val, trans_matrix(x2.m))))
			FROM xd AS x1, xd AS x2, am AS a`, "matrix_multiply(#"},
		// The same shape over an equi-join.
		{`SELECT x1.mi, x2.mi, row_mins(matrix_multiply(x1.m, matrix_multiply(a.val, trans_matrix(x2.m))))
			FROM xd AS x1, xd AS x2, am AS a WHERE x1.g = x2.g`, "matrix_multiply(#"},
		// The distance tile: masked minima grouped per block.
		{`SELECT x1.mi, MIN(row_mins(matrix_multiply(matrix_multiply(x1.m, a.val), trans_matrix(x2.m))
				+ identity_matrix(3) * (1e300 * (1 / (1 + (x1.mi - x2.mi) * (x1.mi - x2.mi))))))
			FROM xd AS x1, xd AS x2, am AS a GROUP BY x1.mi`, "matrix_multiply(#"},
		// Narrowing sub-expressions over each side, NaN payloads from both
		// meeting in one vector-by-scalar product.
		{`SELECT x1.mi, x2.mi, row_sums(x1.m) * frobenius_norm(matrix_multiply(a.val, trans_matrix(x2.m)))
			FROM xd AS x1, xd AS x2, am AS a`, "frobenius_norm(matrix_multiply(#"},
		// Two different NaN payloads meeting in a DOUBLE-by-DOUBLE product:
		// x1 block 2 sums Inf + -Inf, x2 block 1 holds a NaN entry. Eager
		// projection moves the product from generic lanes (the row
		// arithmetic) to a typed window kernel.
		{`SELECT x1.mi, x2.mi, sum_matrix(x1.m) * frobenius_norm(matrix_multiply(a.val, trans_matrix(x2.m))),
				frobenius_norm(matrix_multiply(a.val, trans_matrix(x2.m))) + sum_matrix(x1.m)
			FROM xd AS x1, xd AS x2, am AS a`, "frobenius_norm(matrix_multiply(#"},
	}
	noEager := opt.DefaultOptions()
	noEager.EagerProjection = false
	configs := map[string]opt.Options{"full": opt.DefaultOptions(), "no-eager": noEager}

	for _, window := range []int{1, 3, 1024} {
		results := map[string][][]byte{}
		for name, opts := range configs {
			cfg := DefaultConfig()
			cfg.Cluster = cluster.Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true}
			cfg.Optimizer = opts
			cfg.BatchSize = window
			db := Open(cfg)
			loadDistanceTables(t, db)
			for _, q := range queries {
				res, err := db.Query(q.sql)
				if err != nil {
					t.Fatalf("%s window %d: %q: %v", name, window, q.sql, err)
				}
				if len(res.Rows) == 0 {
					t.Fatalf("%q returned no rows", q.sql)
				}
				results[name] = append(results[name], encodeSorted(res.Rows))
				if name == "full" && !hoistedBelowJoin(t, db, q.sql, q.hoisted) {
					t.Fatalf("%q: no sub-expression %s… computed below the top join", q.sql, q.hoisted)
				}
			}
		}
		for qi, want := range results["no-eager"] {
			if got := results["full"][qi]; !bytes.Equal(got, want) {
				t.Fatalf("window %d query %d: eager sub-expressions changed the result bytes", window, qi)
			}
		}
	}
}

// loadDistanceTables loads point blocks xd (mi, g, m) and a metric am (val):
// 3×4 blocks whose entries include NaN, ±Inf and -0, one NULL block, and a
// metric with negative and -0 entries.
func loadDistanceTables(t *testing.T, db *Database) {
	t.Helper()
	db.MustExec(`CREATE TABLE xd (mi INTEGER, g INTEGER, m MATRIX[][])`)
	db.MustExec(`CREATE TABLE am (val MATRIX[][])`)
	negZero := math.Copysign(0, -1)
	var xd []value.Row
	for mi := 0; mi < 6; mi++ {
		block := make([][]float64, 3)
		for i := range block {
			block[i] = make([]float64, 4)
			for j := range block[i] {
				block[i][j] = float64((mi*7+i*3+j*5)%11) - 5
			}
		}
		switch mi {
		case 1:
			block[2][1] = math.NaN()
		case 2:
			block[0][3] = math.Inf(1)
			block[1][0] = math.Inf(-1)
		case 3:
			block[1][2] = negZero
			block[0][0] = negZero
		}
		m, err := MatrixValue(block)
		if err != nil {
			t.Fatal(err)
		}
		if mi == 4 {
			m = value.Null()
		}
		xd = append(xd, value.Row{value.Int(int64(mi)), value.Int(int64(mi % 2)), m})
	}
	metric := make([][]float64, 4)
	for i := range metric {
		metric[i] = make([]float64, 4)
		for j := range metric[i] {
			metric[i][j] = float64((i+1)*(j+2)%5) - 1.5
		}
	}
	metric[2][2] = negZero
	val, err := MatrixValue(metric)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]value.Row{"xd": xd, "am": {{val}}} {
		if err := db.LoadTable(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeSorted is the row codec's encoding of rows in ascending order of
// their own encodings: byte-exact values, independent of plan output order.
func encodeSorted(rows []value.Row) []byte {
	sorted := append([]value.Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool {
		return string(value.AppendRow(nil, sorted[i])) < string(value.AppendRow(nil, sorted[j]))
	})
	return value.EncodeRows(sorted)
}

// hoistedBelowJoin reports whether the EXPLAIN of sql has a projection below
// its topmost join that computes an expression starting with prefix.
func hoistedBelowJoin(t *testing.T, db *Database, sql, prefix string) bool {
	t.Helper()
	res, err := db.Run("EXPLAIN " + sql)
	if err != nil {
		t.Fatal(err)
	}
	belowJoin := false
	for _, r := range res.Rows {
		line := strings.TrimSpace(r[0].S)
		if strings.HasPrefix(line, "CrossJoin") || strings.HasPrefix(line, "HashJoin") {
			belowJoin = true
		}
		if belowJoin && strings.HasPrefix(line, "Project [") && strings.Contains(line, ", "+prefix) {
			return true
		}
	}
	return false
}
