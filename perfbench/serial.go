package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"relalg/internal/cluster"
	"relalg/internal/core"
	"relalg/internal/opt"
	"relalg/internal/plan"
	"relalg/internal/sqlparse"
	"relalg/internal/storage"
	"relalg/internal/value"
)

// stmt is one SELECT of a serial workload's cycle, with the check its
// result must pass and its linear-algebra work counted from the shapes.
type stmt struct {
	name  string
	sql   string
	flops float64
	check func(*core.Result) error
	// ungated names gated counters this statement is known not to repeat;
	// the report shows their range.
	ungated []string
}

// loadFunc loads rows into a table; set-up code loads only through it so the
// time spent in core.LoadTable is measured.
type loadFunc func(table string, rows []value.Row) error

// serialSpec is a single-client workload: one session runs the statement
// cycle back to back.
type serialSpec struct {
	config core.Config
	// persist opens each set-up on a fresh DataDir under the run directory.
	persist bool
	setup   func(db *core.Database, load loadFunc) error
	stmts   []stmt
	// userBytes is the row-codec size of everything setup loads.
	userBytes int64
	// notIdentical, when set, counts per statement the results the checks
	// accepted without their being byte-identical to the reference.
	notIdentical map[string]int
}

// counterNames are the per-statement counters of the exact-repeat check.
var counterNames = []string{
	"cluster.tuples_shuffled", "cluster.bytes_shuffled", "cluster.shuffle_rounds",
	"cluster.broadcast_rounds", "cluster.tuples_produced",
	"spill.runs", "spill.bytes",
	"storage.pool_hits", "storage.pool_misses", "storage.pool_evictions", "storage.pool_writebacks",
}

// gatedCounters must repeat exactly for every execution of a statement; a
// difference fails the statement. The buffer-pool counters are reported
// with their spread instead: partitions scan pages concurrently, so which
// page the clock hand evicts depends on goroutine scheduling.
var gatedCounters = map[string]bool{
	"cluster.tuples_shuffled": true, "cluster.bytes_shuffled": true, "cluster.shuffle_rounds": true,
	"cluster.broadcast_rounds": true, "cluster.tuples_produced": true,
	"spill.runs": true, "spill.bytes": true,
}

func countersOf(s cluster.StatsSnapshot, p0, p1 storage.PoolStats) []int64 {
	return []int64{
		s.TuplesShuffled, s.BytesShuffled, s.ShuffleRounds, s.BroadcastRounds, s.TuplesProduced,
		s.SpillEvents, s.BytesSpilled,
		p1.Hits - p0.Hits, p1.Misses - p0.Misses, p1.Evictions - p0.Evictions, p1.Writebacks - p0.Writebacks,
	}
}

// openDB is one set-up's database and the data directory it owns.
type openDB struct {
	db  *core.Database
	dir string
}

func (o *openDB) close() error {
	if o == nil {
		return nil
	}
	err := o.db.Close()
	if o.dir != "" {
		if rerr := os.RemoveAll(o.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// setUp builds the workload's database from empty several times (see
// env.setupPlan) and keeps the last one. setup_s is the median build time
// and core.load_ms the median time spent inside LoadTable; data generation
// happens before and is not timed.
func setUp(e *env, cfg core.Config, persist bool, setup func(*core.Database, loadFunc) error, out *outcome, tr *tracer) (*openDB, error) {
	var cur *openDB
	var setupS, loadMs []float64
	lo, hi, least := e.setupPlan()
	begin := time.Now()
	for i := 0; i < hi && (i < lo || time.Since(begin) < least); i++ {
		if err := cur.close(); err != nil {
			return nil, err
		}
		cur = nil
		runtime.GC()
		c := cfg
		var dir string
		if persist {
			dir = filepath.Join(e.dir, fmt.Sprintf("data-%d", i))
			c.DataDir = dir
		}
		db, err := core.OpenData(c)
		if err != nil {
			return nil, err
		}
		cur = &openDB{db: db, dir: dir}
		root := tr.begin("setup", -1, -1-int64(i))
		var inLoad time.Duration
		load := func(table string, rows []value.Row) error {
			sp := tr.begin("core.load", root, -1-int64(i))
			t0 := time.Now()
			err := db.LoadTable(table, rows)
			inLoad += time.Since(t0)
			tr.end(sp)
			return err
		}
		t0 := time.Now()
		err = setup(db, load)
		took := time.Since(t0)
		tr.end(root)
		if err != nil {
			_ = cur.close()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, took.Seconds())
		loadMs = append(loadMs, float64(inLoad)/1e6)
	}
	out.values["setup_s"] = median(setupS)
	out.values["core.load_ms"] = median(loadMs)
	out.meta["setups"] = len(setupS)
	return cur, nil
}

// serialRun executes one serial workload's statements and keeps the
// per-statement accounting.
type serialRun struct {
	spec *serialSpec
	db   *core.Database
	opts opt.Options
	rw   *opt.RewriteStats
	tr   *tracer

	nextID   int64
	baseline [][]int64 // per statement: counters of its first execution
	lo, hi   [][]int64 // per statement: counter range over all executions

	// Sums over traced statements.
	traced int
	sum    map[string]float64
}

// execute runs statement i once, checks it, and returns its latency.
func (r *serialRun) execute(i int, traced bool) (time.Duration, error) {
	s := r.spec.stmts[i]
	var p0, p1 storage.PoolStats
	st := r.db.Store()
	if st != nil {
		p0 = st.PoolStats()
	}
	t0 := time.Now()
	var res *core.Result
	var err error
	if traced {
		res, err = r.tracedQuery(s.sql)
	} else {
		res, err = r.db.Query(s.sql)
	}
	took := time.Since(t0)
	if err != nil {
		return took, fmt.Errorf("%s: %w", s.name, err)
	}
	if st != nil {
		p1 = st.PoolStats()
	}
	c := countersOf(res.Stats, p0, p1)
	if err := r.repeat(i, c); err != nil {
		return took, fmt.Errorf("%s: %w", s.name, err)
	}
	if err := s.check(res); err != nil {
		return took, fmt.Errorf("%s: wrong result: %w", s.name, err)
	}
	if traced {
		r.account(s, res, c)
	}
	return took, nil
}

// repeat is the exact-repeat check: gated counters must equal the
// statement's first execution; every counter's range is kept for the
// report.
func (r *serialRun) repeat(i int, c []int64) error {
	if r.baseline[i] == nil {
		r.baseline[i] = c
		r.lo[i] = append([]int64(nil), c...)
		r.hi[i] = append([]int64(nil), c...)
		return nil
	}
	var err error
	for k, v := range c {
		r.lo[i][k] = min(r.lo[i][k], v)
		r.hi[i][k] = max(r.hi[i][k], v)
		name := counterNames[k]
		if r.isGated(i, name) && v != r.baseline[i][k] && err == nil {
			err = fmt.Errorf("counter %s = %d, first execution had %d", name, v, r.baseline[i][k])
		}
	}
	return err
}

// isGated reports whether counter name must repeat for statement i.
func (r *serialRun) isGated(i int, name string) bool {
	return gatedCounters[name] && !slices.Contains(r.spec.stmts[i].ungated, name)
}

// tracedQuery is db.Query split into its layer calls, one span each.
func (r *serialRun) tracedQuery(sql string) (*core.Result, error) {
	id := r.nextID
	r.nextID++
	return tracedSelect(r.tr, r.db, r.opts, r.rw, sql, id, r.sum)
}

// tracedSelect runs Parse, BuildSelect, Optimize and ExecutePlanned with a
// span around each, under a root span for the statement, and adds the
// rewrites the optimizer fired to sum.
func tracedSelect(tr *tracer, db *core.Database, opts opt.Options, rw *opt.RewriteStats, sql string, id int64, sum map[string]float64) (*core.Result, error) {
	root := tr.begin("stmt", -1, id)
	defer tr.end(root)
	sp := tr.begin("sqlparse.parse", root, id)
	parsed, err := sqlparse.Parse(sql)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sel, ok := parsed.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %q", sql)
	}
	sp = tr.begin("plan.build", root, id)
	logical, err := plan.NewBuilder(db.Catalog()).BuildSelect(sel)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	before := rw.Total()
	sp = tr.begin("opt.optimize", root, id)
	optimized, err := opt.New(opts).Optimize(logical)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sum["opt.rewrites_fired"] += float64(rw.Total() - before)
	sp = tr.begin("core.execute", root, id)
	res, err := db.ExecutePlanned(optimized, core.Resources{})
	tr.end(sp)
	return res, err
}

// timingLabels maps the engine's Result.Timings labels to metric names.
var timingLabels = map[string]string{
	"scan": "exec.scan_ms", "pipeline": "exec.pipeline_ms", "filter": "exec.filter_ms",
	"project": "exec.project_ms", "join": "exec.join_ms", "aggregate": "exec.aggregate_ms",
	"aggregate-shuffle": "exec.aggregate_shuffle_ms", "sort": "exec.sort_ms", "spill": "spill.io_ms",
}

// addResult adds one statement's engine-reported timings and stats to sum.
func addResult(sum map[string]float64, res *core.Result) {
	for label, name := range timingLabels {
		sum[name] += float64(res.Timings.Get(label)) / 1e6
	}
	sum["opt.replans"] += float64(res.Stats.Replans)
}

func (r *serialRun) account(s stmt, res *core.Result, c []int64) {
	r.traced++
	addResult(r.sum, res)
	for k, name := range counterNames {
		r.sum[name] += float64(c[k])
	}
	r.sum["linalg.flops"] += s.flops
}

// runSerial sets the workload up, runs one untimed warm-up cycle, then runs
// whole cycles until the measuring time is used. A traced run alternates
// traced and untraced cycles so their wall times compare like for like.
func runSerial(e *env, spec *serialSpec) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	rw := &opt.RewriteStats{}
	cfg := spec.config
	cfg.Optimizer.Stats = rw
	meta := configMeta(cfg)
	meta["persistent"] = spec.persist
	out.meta["config"] = meta
	odb, err := setUp(e, cfg, spec.persist, spec.setup, out, tr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = odb.close() }()
	n := len(spec.stmts)
	r := &serialRun{
		spec: spec, db: odb.db, opts: cfg.Optimizer, rw: rw, tr: tr,
		baseline: make([][]int64, n), lo: make([][]int64, n), hi: make([][]int64, n),
		sum: map[string]float64{},
	}
	if st := odb.db.Store(); st != nil {
		out.values["storage.page_writes"] = float64(st.WriteCount())
		if spec.userBytes > 0 {
			b, err := dirBytes(odb.dir)
			if err != nil {
				return nil, err
			}
			out.values["storage.bytes_per_user_byte"] = float64(b) / float64(spec.userBytes)
		}
	}
	for i := range spec.stmts {
		out.attempted++
		if _, err := r.execute(i, false); err != nil {
			out.fail(e, err)
		}
	}

	var lat []time.Duration
	perStmt := make([][]float64, n)
	var tracedCycles, plainCycles []float64
	var ms0, ms1 runtime.MemStats
	var allocs, allocBytes, gcs uint64
	runtime.GC()
	var heap *heapSampler
	if !e.trace {
		heap = startHeapSampler(heapSampleEvery, window)
	}
	start := time.Now()
	for cycle := 0; ; cycle++ {
		traced := e.trace && cycle%2 == 0
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		var cyc time.Duration
		for i := range spec.stmts {
			out.attempted++
			took, err := r.execute(i, traced)
			if err != nil {
				out.fail(e, err)
			}
			cyc += took
			if !traced {
				lat = append(lat, took)
				perStmt[i] = append(perStmt[i], float64(took)/1e6)
			}
		}
		if traced {
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			gcs += uint64(ms1.NumGC - ms0.NumGC)
			tracedCycles = append(tracedCycles, cyc.Seconds())
		} else {
			plainCycles = append(plainCycles, cyc.Seconds())
		}
		if time.Since(start) >= e.seconds && (!e.trace || !traced) {
			break
		}
	}
	if !e.trace {
		peak := heap.finish()
		// A serial run's statements are one latency group: whole cycles of a
		// fixed mix, so the tail stays inside the slowest statement's mode.
		sum := latencyGroups(lat, len(lat))
		// One cycle is one window: throughput is the median over cycles of
		// statements per second of statement execution.
		out.values["throughput_qps"] = float64(len(spec.stmts)) / median(plainCycles)
		out.values["latency_p50_ms"] = sum.P50ms
		out.values["latency_tail_ms"] = sum.TailMs
		out.values["peak_heap_mb"] = peak
		out.meta["latency"] = sum
		stmtP50 := map[string]float64{}
		for i, s := range spec.stmts {
			stmtP50[s.name] = median(perStmt[i])
		}
		out.meta["stmt_p50_ms"] = stmtP50
	} else {
		t := float64(r.traced)
		for name, v := range r.sum {
			out.values[name] = v / t
		}
		self := layerSelfMs(tr.snapshot())
		for _, name := range []string{"sqlparse.parse", "plan.build", "opt.optimize", "core.execute"} {
			out.values[name+"_ms"] = self[name] / t
		}
		if ex := self["core.execute"]; ex > 0 {
			out.values["linalg.gflops"] = r.sum["linalg.flops"] / (ex / 1e3) / 1e9
		}
		if h, m := r.sum["storage.pool_hits"], r.sum["storage.pool_misses"]; h+m > 0 {
			out.values["storage.pool_hit_ratio"] = h / (h + m)
		}
		out.values["runtime.allocs_per_stmt"] = float64(allocs) / t
		out.values["runtime.alloc_mb_per_stmt"] = float64(allocBytes) / (1 << 20) / t
		out.values["runtime.gc_cycles"] = float64(gcs) / t
		out.values["trace.overhead_frac"] = median(tracedCycles)/median(plainCycles) - 1
		out.tr = tr
	}
	out.meta["counters"] = r.counterReport()
	if spec.notIdentical != nil {
		out.meta["not_byte_identical"] = spec.notIdentical
	}
	return out, nil
}

// counterReport lists each statement's counters: the value of every gated
// counter (equal on every execution, or the statement failed) and the
// range [min, max] of the others.
func (r *serialRun) counterReport() map[string]any {
	rep := map[string]any{}
	for i, s := range r.spec.stmts {
		if r.baseline[i] == nil {
			continue
		}
		gated := map[string]int64{}
		ranges := map[string][2]int64{}
		for k, name := range counterNames {
			if r.isGated(i, name) {
				gated[name] = r.baseline[i][k]
			} else {
				ranges[name] = [2]int64{r.lo[i][k], r.hi[i][k]}
			}
		}
		rep[s.name] = map[string]any{"gated": gated, "ungated_range": ranges}
	}
	return rep
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
