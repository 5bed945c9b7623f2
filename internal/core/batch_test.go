package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"relalg/internal/value"
)

// batchTestLoad fills db with the tables the batch-equivalence queries run
// over: numeric columns seeded with NaN, ±Inf, and -0 payloads, strings,
// integers spanning the float53 boundary, and vector cells, plus a pair of
// co-partitioned join tables.
func batchTestLoad(t *testing.T, db *Database) {
	t.Helper()
	db.MustExec("CREATE TABLE pts (g INTEGER, tag STRING, a INTEGER, b INTEGER, x DOUBLE, y DOUBLE)")
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25}
	rows := make([]value.Row, 700)
	for i := range rows {
		x := special[i%len(special)]
		y := float64(i%19) - 9
		a := int64(i % 23)
		if i%31 == 0 {
			a = int64(1)<<53 + int64(i) // exercise the lossy float compare
		}
		rows[i] = value.Row{
			value.Int(int64(i % 13)),
			value.String_(fmt.Sprintf("t%d", i%5)),
			value.Int(a),
			value.Int(int64(i%7) - 3),
			value.Double(x),
			value.Double(y),
		}
	}
	if err := db.LoadTable("pts", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE jl (id INTEGER, w DOUBLE, vec VECTOR[4]) PARTITION BY HASH (id)")
	db.MustExec("CREATE TABLE jr (id INTEGER, z DOUBLE) PARTITION BY HASH (id)")
	lrows := make([]value.Row, 500)
	for i := range lrows {
		lrows[i] = value.Row{
			value.Int(int64(i % 211)),
			value.Double(float64(i%17) * 0.5),
			VectorValue(float64(i%7), float64((i+1)%5), float64((i+2)%3), float64(i%11)),
		}
	}
	rrows := make([]value.Row, 300)
	for i := range rrows {
		rrows[i] = value.Row{value.Int(int64(i % 211)), value.Double(float64(i%29) - 14)}
	}
	if err := db.LoadTable("jl", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("jr", rrows); err != nil {
		t.Fatal(err)
	}
}

// batchEquivQueries exercises every vectorized operator: chained filters with
// integer division guarded by an earlier predicate, projection arithmetic,
// logic over NaN/Inf comparisons, equi-join build/probe with a residual,
// grouped and global aggregation, LIMIT inside a pipeline, and sorts.
var batchEquivQueries = []string{
	"SELECT g, a + b AS s, x * 2.0 AS xx FROM pts WHERE y > -5 AND b <> 0 AND a / b > 1",
	"SELECT tag, -a AS na, NOT (x >= 0) AS nonneg FROM pts WHERE tag >= 't1' AND tag < 't4'",
	"SELECT COUNT(*) AS n, SUM(y) AS sy, MIN(g) AS mg FROM pts WHERE x = x OR y < 0",
	"SELECT g, COUNT(*) AS n, SUM(a) AS sa, AVG(y) AS ay FROM pts GROUP BY g",
	"SELECT tag, SUM(b * b) AS sq FROM pts WHERE a > 2 GROUP BY tag",
	"SELECT jl.id, jl.w + jr.z AS wz FROM jl, jr WHERE jl.id = jr.id AND jl.w > 1.0",
	"SELECT jl.id, COUNT(*) AS n, SUM(jr.z) AS sz FROM jl, jr WHERE jl.id = jr.id GROUP BY jl.id",
	"SELECT SUM(inner_product(jl.vec, jl.vec)) AS ip FROM jl",
	"SELECT g, x FROM pts WHERE y > 0 LIMIT 7",
	"SELECT g, y FROM pts WHERE g < 5 ORDER BY y, g LIMIT 20",
}

// batchPayloadQueries surface the NaN, ±Inf and -0 payloads of pts through
// every operator: raw and computed projections, grouping on the special
// doubles themselves (NaN keys never merge, -0 and 0 do), aggregates that
// absorb them, and a join that carries them across the probe.
var batchPayloadQueries = []string{
	"SELECT g, x, -x AS nx, x * y AS xy, x + 0.0 AS x0 FROM pts WHERE g < 3",
	"SELECT x, COUNT(*) AS n, SUM(y) AS sy FROM pts GROUP BY x",
	"SELECT g, SUM(x) AS sx, MIN(x) AS mn, MAX(x) AS mx FROM pts GROUP BY g",
	"SELECT pts.x, jr.z, pts.x * jr.z AS xz FROM pts, jr WHERE pts.g = jr.id AND pts.b > 1",
}

// Tight-budget and LIMIT legs, recorded alongside the matrix.
const (
	batchSpillQuery  = "SELECT jl.id, COUNT(*) AS n, SUM(jr.z) AS sz FROM jl, jr WHERE jl.id = jr.id GROUP BY jl.id"
	batchSpillBudget = 8 << 10
	batchLimitQuery  = "SELECT g, y FROM pts WHERE y > -100 LIMIT 3"
	batchLimitN      = 3
)

// batchGoldenPath holds the reference digests: the EncodeRows digest (schema
// included) of every query × cluster shape × memory budget, recorded from the
// row-at-a-time executor this engine had before the batch executor became
// its only one. They are data, not a second implementation: the batch
// executor must keep matching them at every window size.
const batchGoldenPath = "testdata/batch_equiv.golden"

var updateBatchGolden = flag.Bool("update-batch-golden", false,
	"rewrite "+batchGoldenPath+" from the current executor (only when the query set changes; review the diff)")

func batchTestDB(t *testing.T, nodes, parts, batch int, budget int64) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = nodes
	cfg.Cluster.PartitionsPerNode = parts
	cfg.Cluster.MemoryBudgetBytes = budget
	cfg.BatchSize = batch
	db := Open(cfg)
	batchTestLoad(t, db)
	return db
}

// batchShape is one cluster shape of the equivalence matrix.
type batchShape struct{ nodes, parts int }

var (
	batchShapes  = []batchShape{{1, 1}, {2, 2}, {1, 3}}
	batchBudgets = []int64{0, 96 << 10}
)

// batchGoldenKey names one recorded result.
func batchGoldenKey(sh batchShape, budget int64, q string) string {
	return fmt.Sprintf("%dx%d %d %s", sh.nodes, sh.parts, budget, q)
}

// resultDigest is the hex SHA-256 of resultText.
func resultDigest(res *Result) string {
	sum := sha256.Sum256([]byte(resultText(res)))
	return hex.EncodeToString(sum[:])
}

// batchDigests runs every golden query at one window size and returns key →
// digest for the given shapes.
func batchDigests(t *testing.T, batch int, shapes []batchShape) map[string]string {
	t.Helper()
	out := map[string]string{}
	run := func(db *Database, sh batchShape, budget int64, q string) {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("batch=%d %dx%d budget=%d %q: %v", batch, sh.nodes, sh.parts, budget, q, err)
		}
		out[batchGoldenKey(sh, budget, q)] = resultDigest(res)
	}
	for _, sh := range shapes {
		for _, budget := range batchBudgets {
			db := batchTestDB(t, sh.nodes, sh.parts, batch, budget)
			for _, q := range batchEquivQueries {
				run(db, sh, budget, q)
			}
			for _, q := range batchPayloadQueries {
				run(db, sh, budget, q)
			}
		}
		if sh == (batchShape{2, 2}) {
			run(batchTestDB(t, 2, 2, batch, batchSpillBudget), sh, batchSpillBudget, batchSpillQuery)
			run(batchTestDB(t, 2, 2, batch, 0), sh, 0, batchLimitQuery)
		}
	}
	return out
}

// loadBatchGolden reads the committed reference digests, rewriting them first
// when -update-batch-golden is set.
func loadBatchGolden(t *testing.T) map[string]string {
	t.Helper()
	if *updateBatchGolden {
		writeDigestGolden(t, batchGoldenPath,
			"# sha256(schema + EncodeRows) <nodes>x<parts> <memory budget> <query>\n",
			batchDigests(t, 0, batchShapes))
	}
	return readDigestGolden(t, batchGoldenPath)
}

// readDigestGolden reads a "<digest> <key>" golden file; blank lines and
// lines starting with # are skipped.
func readDigestGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		digest, key, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		golden[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// writeDigestGolden writes digests as a golden file, sorted by key, under
// the given header line.
func writeDigestGolden(t *testing.T, path, header string, digests map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(header)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", digests[k], k)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkBatchGolden compares one window size's digests against the golden.
func checkBatchGolden(t *testing.T, golden map[string]string, batch int, shapes []batchShape) {
	t.Helper()
	for key, got := range batchDigests(t, batch, shapes) {
		want, ok := golden[key]
		switch {
		case !ok:
			t.Errorf("batch=%d %s: no golden digest recorded", batch, key)
		case got != want:
			t.Errorf("batch=%d %s: result differs from the golden reference", batch, key)
		}
	}
}

// TestBatchExecutorBitIdentical pins the executor's identity contract: for
// every query, cluster shape, and memory budget, every window size —
// including degenerate (1), odd (3, 1023), and full (4096) windows — produces
// results byte-identical (EncodeRows, so NaN payloads compare too) to the
// committed golden digests.
func TestBatchExecutorBitIdentical(t *testing.T) {
	golden := loadBatchGolden(t)
	shapes := batchShapes
	batchSizes := []int{1, 3, 1023, 4096}
	if testing.Short() {
		shapes = []batchShape{{2, 2}}
		batchSizes = []int{3, 1024}
	}
	for _, bs := range batchSizes {
		checkBatchGolden(t, golden, bs, shapes)
	}
}

// TestBatchExecutorSpillLegSpills asserts the tight-budget leg of the
// equivalence matrix actually drives the out-of-core paths: the join+agg
// query must spill and still match its golden digest byte for byte.
func TestBatchExecutorSpillLegSpills(t *testing.T) {
	golden := loadBatchGolden(t)
	want := golden[batchGoldenKey(batchShape{2, 2}, batchSpillBudget, batchSpillQuery)]
	if want == "" {
		t.Fatal("no golden digest for the spill leg")
	}
	for _, bs := range []int{1, 1023} {
		db := batchTestDB(t, 2, 2, bs, batchSpillBudget)
		res, err := db.Query(batchSpillQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SpillEvents == 0 {
			t.Fatalf("batch=%d: executor did not spill at budget %d", bs, batchSpillBudget)
		}
		if got := resultDigest(res); got != want {
			t.Fatalf("batch=%d: spilled results differ from the golden reference", bs)
		}
	}
}

// TestBatchLimitChargesOnlyEmitted pins LIMIT over a fused pipeline: each
// partition stops producing at the limit, so the pipeline charges at most
// N rows per partition (plus the N rows LIMIT itself materializes), however
// many rows survive the filter; the visible rows match the golden.
func TestBatchLimitChargesOnlyEmitted(t *testing.T) {
	golden := loadBatchGolden(t)
	db := batchTestDB(t, 2, 2, 256, 0)
	res, err := db.Query(batchLimitQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultDigest(res), golden[batchGoldenKey(batchShape{2, 2}, 0, batchLimitQuery)]; got != want {
		t.Fatal("LIMIT rows differ from the golden reference")
	}
	parts := int64(db.Cluster().Partitions())
	if bound := batchLimitN * (parts + 1); res.Stats.TuplesProduced > bound {
		t.Fatalf("LIMIT %d charged %d tuples, want <= %d (N per partition plus the N emitted)",
			batchLimitN, res.Stats.TuplesProduced, bound)
	}
}
