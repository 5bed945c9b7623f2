package core

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"

	"relalg/internal/value"
)

// This file pins the fused linear-algebra sums — SUM(outer_product) and
// SUM(matrix_multiply), symmetric (Gram-shaped) and general, global and
// grouped — against digests recorded before the windowed rank-k kernel
// replaced the per-row accumulation. The inputs carry NULL lanes, ±0, and
// (in the *s tables) NaN payloads and ±Inf, so the finite screen and its
// per-row fallback are both on the recorded path.

// fusedGoldenPath holds the EncodeRows digest (schema included) of every
// fused query × cluster shape × memory budget × fusion setting, and under a
// "canonical " key the digest of the same rows with every NaN rewritten to
// one payload.
//
// Which operand's payload an operation on two NaNs keeps depends on the
// order the compiler emits commutative operands in, which Go leaves open:
// the race detector's instrumentation changes it inside the per-row matrix
// product, so a -race build keeps different payloads than the build that
// recorded the digests, at the parent commit as much as now. A race build
// therefore compares the canonical digests against the golden and the raw
// ones across window sizes; every other build compares both against it.
const fusedGoldenPath = "testdata/fused_equiv.golden"

var updateFusedGolden = flag.Bool("update-fused-golden", false,
	"rewrite "+fusedGoldenPath+" from the current executor (only when the query set changes; review the diff)")

// fusedSpecial returns a non-finite or signed-zero entry for lane (i, j) of
// a special row, cycling through NaNs with distinct payloads and both signs,
// ±Inf, and -0.
func fusedSpecial(i, j int) float64 {
	switch (i + j) % 5 {
	case 0:
		return math.Float64frombits(0x7ff8000000000000 | uint64(i*8+j+1))
	case 1:
		return math.Float64frombits(0xfff8000000000000 | uint64(i*4+j+3))
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	}
	return math.Copysign(0, -1)
}

// fusedEntry is the finite pattern every table starts from: small values,
// exact zeros of both signs, and magnitudes spread enough that summation
// order shows in the low bits.
func fusedEntry(i, j int) float64 {
	v := float64((i*7+j*3)%11-5) * (1 + float64(i%13)/7)
	switch {
	case (i+j)%9 == 0:
		return math.Copysign(0, -1)
	case (i+2*j)%10 == 0:
		return 0
	}
	return v
}

// fusedSpecialRow reports whether row i of a special table carries
// non-finite entries: some rows of group 3 throughout, and a few late rows
// of group 5, so that group's earlier windows are all finite.
func fusedSpecialRow(i int) bool {
	g := i % 7
	return (g == 3 && i%4 == 0) || (g == 5 && i > 600 && i%50 == 5)
}

func fusedVec(i, n int, special bool) value.Value {
	e := make([]float64, n)
	for j := range e {
		e[j] = fusedEntry(i, j)
		if special && j%2 == 1 {
			e[j] = fusedSpecial(i, j)
		}
	}
	return VectorValue(e...)
}

func fusedMat(t *testing.T, i, rows, cols int, special bool) value.Value {
	t.Helper()
	m := make([][]float64, rows)
	for r := range m {
		m[r] = make([]float64, cols)
		for c := range m[r] {
			m[r][c] = fusedEntry(i+r*5, c)
			if special && (r+c)%3 == 0 {
				m[r][c] = fusedSpecial(i+r, c)
			}
		}
	}
	v, err := MatrixValue(m)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fusedTestLoad fills db with the vector tables fv/fvs and the block tables
// fm/fms; the *s twins differ only in their special rows.
func fusedTestLoad(t *testing.T, db *Database) {
	t.Helper()
	for _, name := range []string{"fv", "fvs"} {
		db.MustExec("CREATE TABLE " + name + " (id INTEGER, g INTEGER, k INTEGER, x VECTOR[5], y VECTOR[3]) PARTITION BY HASH (id)")
		rows := make([]value.Row, 1500)
		for i := range rows {
			special := name == "fvs" && fusedSpecialRow(i)
			x, y := fusedVec(i, 5, special), fusedVec(i+1, 3, special)
			if i%17 == 0 {
				x = value.Null()
			}
			if i%13 == 0 {
				y = value.Null()
			}
			rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 7)), value.Int(int64(i % 19)), x, y}
		}
		if err := db.LoadTable(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"fm", "fms"} {
		db.MustExec("CREATE TABLE " + name + " (id INTEGER, g INTEGER, m MATRIX[4][3], n MATRIX[3][2], p MATRIX[4][2])")
		rows := make([]value.Row, 400)
		for i := range rows {
			special := name == "fms" && fusedSpecialRow(i)
			m := fusedMat(t, i, 4, 3, special)
			if i%19 == 0 {
				m = value.Null()
			}
			rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 7)), m,
				fusedMat(t, i+2, 3, 2, false), fusedMat(t, i+3, 4, 2, special)}
		}
		if err := db.LoadTable(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// fusedQueries returns the golden query set: over each vector table the
// symmetric and asymmetric outer sums, global and grouped; over each block
// table the symmetric and asymmetric transpose-multiply sums and a general
// product sum.
func fusedQueries() []string {
	var qs []string
	for _, tbl := range []string{"fv", "fvs"} {
		qs = append(qs,
			"SELECT SUM(outer_product(x, x)) AS s FROM "+tbl,
			"SELECT SUM(outer_product(x, y)) AS s FROM "+tbl,
			"SELECT g, SUM(outer_product(x, x)) AS s, COUNT(*) AS n FROM "+tbl+" GROUP BY g",
			"SELECT g, SUM(outer_product(y, x)) AS s FROM "+tbl+" GROUP BY g",
		)
	}
	for _, tbl := range []string{"fm", "fms"} {
		qs = append(qs,
			"SELECT SUM(matrix_multiply(trans_matrix(m), m)) AS s FROM "+tbl,
			"SELECT SUM(matrix_multiply(trans_matrix(m), p)) AS s FROM "+tbl,
			"SELECT SUM(matrix_multiply(m, n)) AS s FROM "+tbl,
			"SELECT g, SUM(matrix_multiply(trans_matrix(m), m)) AS s FROM "+tbl+" GROUP BY g",
		)
	}
	return qs
}

// The tight-budget leg: nineteen groups overflow the 4 KiB floor of each
// partition's reservation, so the grouped Gram spills its last new groups
// and aggregates them from the overflow files.
const (
	fusedSpillQuery  = "SELECT k, SUM(outer_product(x, x)) AS s, SUM(outer_product(x, y)) AS t FROM fvs GROUP BY k"
	fusedSpillBudget = 2 << 10
)

var fusedShapes = []batchShape{{1, 1}, {2, 2}, {1, 3}}

func fusedTestDB(t *testing.T, sh batchShape, batch int, budget int64, unfused bool) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = sh.nodes
	cfg.Cluster.PartitionsPerNode = sh.parts
	cfg.Cluster.MemoryBudgetBytes = budget
	cfg.BatchSize = batch
	cfg.DisableAggFusion = unfused
	db := Open(cfg)
	fusedTestLoad(t, db)
	return db
}

func fusedGoldenKey(sh batchShape, budget int64, unfused bool, q string) string {
	mode := "fused"
	if unfused {
		mode = "unfused"
	}
	return fmt.Sprintf("%dx%d %d %s %s", sh.nodes, sh.parts, budget, mode, q)
}

// fusedDigests runs the golden set at one window size and returns key →
// digest for the given shapes.
func fusedDigests(t *testing.T, batch int, shapes []batchShape) map[string]string {
	t.Helper()
	out := map[string]string{}
	run := func(db *Database, sh batchShape, budget int64, unfused bool, q string) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("batch=%d %s: %v", batch, fusedGoldenKey(sh, budget, unfused, q), err)
		}
		key := fusedGoldenKey(sh, budget, unfused, q)
		out[key] = resultDigest(res)
		canonicalNaNs(res.Rows)
		out["canonical "+key] = resultDigest(res)
	}
	for _, sh := range shapes {
		for _, unfused := range []bool{false, true} {
			db := fusedTestDB(t, sh, batch, 0, unfused)
			for _, q := range fusedQueries() {
				run(db, sh, 0, unfused, q)
			}
			run(fusedTestDB(t, sh, batch, fusedSpillBudget, unfused), sh, fusedSpillBudget, unfused, fusedSpillQuery)
		}
	}
	return out
}

// canonicalNaNs rewrites, in place, every NaN in the rows' doubles, vectors
// and matrices to math.NaN().
func canonicalNaNs(rows []value.Row) {
	canon := func(xs []float64) {
		for i, x := range xs {
			if x != x {
				xs[i] = math.NaN()
			}
		}
	}
	for _, r := range rows {
		for i := range r {
			switch v := &r[i]; v.Kind {
			case value.KindDouble, value.KindLabeledScalar:
				if v.D != v.D {
					v.D = math.NaN()
				}
			case value.KindVector:
				canon(v.Vec.Data)
			case value.KindMatrix:
				canon(v.Mat.Data)
			}
		}
	}
}

func loadFusedGolden(t *testing.T) map[string]string {
	t.Helper()
	if *updateFusedGolden {
		writeDigestGolden(t, fusedGoldenPath,
			"# sha256(schema + EncodeRows) [canonical] <nodes>x<parts> <memory budget> <fused|unfused> <query>\n",
			fusedDigests(t, 0, fusedShapes))
	}
	return readDigestGolden(t, fusedGoldenPath)
}

// TestFusedSumsBitIdentical pins the fused LA sums' identity contract: every
// window size — degenerate (1), odd (3, 1023), and full (4096) — produces
// results byte-identical (EncodeRows, so NaN payloads and -0 compare too) to
// the committed digests, with fusion on and off and under a spilling budget.
// A race build holds NaN payloads to the first window's results instead of
// the golden; see fusedGoldenPath.
func TestFusedSumsBitIdentical(t *testing.T) {
	golden := loadFusedGolden(t)
	shapes := fusedShapes
	windows := []int{1, 3, 1023, 4096}
	if testing.Short() {
		shapes = []batchShape{{2, 2}}
		windows = []int{3, 1023}
	}
	var first map[string]string
	for _, w := range windows {
		digests := fusedDigests(t, w, shapes)
		if first == nil {
			first = digests
		}
		for key, got := range digests {
			want, ok := golden[key]
			if raceBuild && !strings.HasPrefix(key, "canonical ") {
				want, ok = first[key], true
			}
			switch {
			case !ok:
				t.Errorf("batch=%d %s: no golden digest recorded", w, key)
			case got != want:
				t.Errorf("batch=%d %s: result differs from the golden reference", w, key)
			}
		}
	}
}

// TestFusedSpillLegSpills asserts the tight-budget leg really aggregates
// out of core.
func TestFusedSpillLegSpills(t *testing.T) {
	db := fusedTestDB(t, batchShape{2, 2}, 0, fusedSpillBudget, false)
	res, err := db.Query(fusedSpillQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpillEvents == 0 {
		t.Fatalf("grouped fused sum did not spill at budget %d", fusedSpillBudget)
	}
}
