package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"relalg/internal/core"
	"relalg/internal/value"
	"relalg/internal/workload"
)

// spillCounters are the exact-repeat counters of the spill layer.
var spillCounters = []string{"spill.runs", "spill.bytes"}

// sumTol bounds the relative difference allowed between floating-point
// sums whose inputs arrive in a different order (see outOfCore).
const sumTol = 1e-12

// outOfCore runs join + GROUP BY, scan-aggregate and ORDER BY queries on
// persistent paged storage whose buffer pool is smaller than the table,
// under a per-query memory budget below the join and sort working sets, so
// the buffer pool misses and evicts and the grace join and external sort
// write spill runs. Each result is compared with the same query on an
// in-memory database without a budget: byte-identical (row codec), except
// the join's floating-point SUMs. A spilled grace join hands its rows to
// the aggregate in another order than the in-memory join, so those sums may
// differ in the last bits; they must agree within sumTol, and every result
// that is not byte-identical is counted in the run's metadata.
//
// The GROUP BY over pts has groups whose state fits the budget: with about
// twice as many groups, hybrid aggregation sometimes writes thousands of
// runs and takes 20 to 100 times longer, which would make every figure of
// the workload bimodal.
func outOfCore(e *env) (*serialSpec, error) {
	n, d, groups, classes := 20000, 32, 1000, 64
	pool, budget := int64(1<<20), int64(256<<10)
	if e.smoke {
		n, d, groups, classes = 1500, 4, 50, 8
		pool, budget = 64<<10, 16<<10
	}
	data := workload.DenseVectors(e.seed, n, d)
	rng := rand.New(rand.NewSource(e.seed + 1))
	pts := make([]value.Row, n)
	lab := make([]value.Row, n)
	for i, v := range workload.VectorRows(data) {
		pts[i] = value.Row{v[0], value.Int(int64(i % groups)), v[1]}
		lab[i] = value.Row{value.Int(int64(i)), value.Int(rng.Int63n(int64(classes)))}
	}
	setup := func(db *core.Database, load loadFunc) error {
		for _, ddl := range []string{
			fmt.Sprintf("CREATE TABLE pts (id INTEGER, grp INTEGER, value VECTOR[%d])", d),
			"CREATE TABLE lab (id INTEGER, cls INTEGER)",
		} {
			if err := db.Exec(ddl); err != nil {
				return err
			}
		}
		return loadAll(load, []string{"pts", "lab"}, pts, lab)
	}
	// The grace join and hybrid aggregation decide what to spill as
	// concurrent partitions reserve memory from one per-query budget, so
	// their run counts, and with them their latencies, differ between
	// executions; the external sorts' do not. The five statements' latencies
	// are far apart, so the median falls on sort_narrow and the tail on sort,
	// both of which spill the same runs every time.
	fn, fd := float64(n), float64(d)
	stmts := []stmt{
		{name: "join_groupby", flops: fn * fd, ungated: spillCounters,
			sql: `SELECT l.cls, COUNT(*), SUM(p.value) FROM pts AS p, lab AS l
				WHERE p.id = l.id GROUP BY l.cls`},
		{name: "scan_groupby", flops: 2 * fn * fd, ungated: spillCounters,
			sql: `SELECT p.grp, COUNT(*), SUM(p.value), MAX(inner_product(p.value, p.value))
				FROM pts AS p GROUP BY p.grp`},
		{name: "scan_gram", flops: fn / float64(groups) * 100 * fd * fd,
			sql: `SELECT COUNT(*), SUM(outer_product(p.value, p.value)) FROM pts AS p WHERE p.grp < 100`},
		{name: "sort_narrow", flops: fn * fd,
			sql: `SELECT p.grp, p.id, inner_product(p.value, p.value) AS nrm FROM pts AS p ORDER BY p.grp, nrm, p.id`},
		{name: "sort", flops: fn * fd,
			sql: `SELECT p.id, p.value FROM pts AS p ORDER BY inner_product(p.value, p.value), p.id`},
	}

	// The reference: the same queries on an in-memory database.
	ref := core.Open(baseConfig())
	if err := setup(ref, ref.LoadTable); err != nil {
		return nil, err
	}
	notIdentical := map[string]int{}
	for i := range stmts {
		res, err := ref.Query(stmts[i].sql)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", stmts[i].name, err)
		}
		stmts[i].check = sameAs(res.Rows, stmts[i].name == "join_groupby", stmts[i].name, notIdentical)
	}

	cfg := baseConfig()
	cfg.BufferPoolBytes = pool
	cfg.Cluster.MemoryBudgetBytes = budget
	return &serialSpec{
		config:       cfg,
		persist:      true,
		setup:        setup,
		stmts:        stmts,
		userBytes:    int64(len(value.EncodeRows(pts)) + len(value.EncodeRows(lab))),
		notIdentical: notIdentical,
	}, nil
}

// sameAs requires a result byte-identical to want. With floatSums, floating
// values (doubles, vectors, matrices) need only agree within sumTol and
// every other value exactly; results that are not byte-identical are
// counted in notIdentical[name].
func sameAs(want []value.Row, floatSums bool, name string, notIdentical map[string]int) func(*core.Result) error {
	enc := value.EncodeRows(want)
	return func(res *core.Result) error {
		if bytes.Equal(value.EncodeRows(res.Rows), enc) {
			return nil
		}
		if !floatSums {
			return fmt.Errorf("%d rows are not byte-identical to the in-memory result", len(res.Rows))
		}
		notIdentical[name]++
		if len(res.Rows) != len(want) {
			return fmt.Errorf("%d rows, in-memory result has %d", len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if len(row) != len(want[i]) {
				return fmt.Errorf("row %d has %d values, want %d", i, len(row), len(want[i]))
			}
			for j, v := range row {
				if err := closeValue(v, want[i][j]); err != nil {
					return fmt.Errorf("row %d column %d: %w", i, j, err)
				}
			}
		}
		return nil
	}
}

func closeValue(got, want value.Value) error {
	if got.Kind != want.Kind {
		return fmt.Errorf("kind %s, want %s", got.Kind, want.Kind)
	}
	switch got.Kind {
	case value.KindDouble:
		return relClose([]float64{got.D}, []float64{want.D}, sumTol)
	case value.KindVector:
		return relClose(got.Vec.Data, want.Vec.Data, sumTol)
	case value.KindMatrix:
		if got.Mat.Rows != want.Mat.Rows || got.Mat.Cols != want.Mat.Cols {
			return fmt.Errorf("shape %dx%d, want %dx%d", got.Mat.Rows, got.Mat.Cols, want.Mat.Rows, want.Mat.Cols)
		}
		return relClose(got.Mat.Data, want.Mat.Data, sumTol)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%v, want %v", got, want)
	}
	return nil
}
