package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"relalg/internal/core"
	"relalg/internal/value"
	"relalg/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/counters_smoke.json")

// smoke runs one workload at the tiny test sizes.
func smoke(t *testing.T, workload string, trace bool) (*result, map[string]any) {
	t.Helper()
	e := &env{workload: workload, seed: 1, seconds: 300 * time.Millisecond, trace: trace, smoke: true, log: io.Discard}
	res, meta, err := measure(workloads[workload], e, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, meta
}

// TestSmokeWorkloads runs every workload, untraced and traced, and requires
// every result check to pass and exactly the catalogue's metrics.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			res, meta := smoke(t, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w, trace, res.Correct, res.Attempted, res.Failed, meta["errors"])
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			v := func(name string) float64 { return res.Metrics[name].Value }
			switch w {
			case "la_tuple":
				if v("linalg.flops") != 0 || v("exec.join_ms") <= 0 {
					t.Errorf("la_tuple: flops %v, join %v ms", v("linalg.flops"), v("exec.join_ms"))
				}
			case "la_dense":
				if v("linalg.flops") <= 0 || v("exec.aggregate_ms") <= 0 {
					t.Errorf("la_dense: flops %v, aggregate %v ms", v("linalg.flops"), v("exec.aggregate_ms"))
				}
			case "out_of_core":
				if v("spill.runs") <= 0 || v("storage.pool_misses") <= 0 || v("storage.bytes_per_user_byte") <= 0 {
					t.Errorf("out_of_core: spill runs %v, pool misses %v, bytes/user byte %v",
						v("spill.runs"), v("storage.pool_misses"), v("storage.bytes_per_user_byte"))
				}
			case "serve_mix":
				if v("serve.roundtrip_ms_p50") <= 0 || v("sqlparse.parse_ms") <= 0 || v("serve.plan_cache_hit_ratio") <= 0 {
					t.Errorf("serve_mix: roundtrip %v ms, parse %v ms, cache hit ratio %v",
						v("serve.roundtrip_ms_p50"), v("sqlparse.parse_ms"), v("serve.plan_cache_hit_ratio"))
				}
			}
		}
	}
}

// perturb changes the first numeric value of a deep copy of rows.
func perturb(rows []value.Row) ([]value.Row, bool) {
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		out[i] = r.DeepClone()
	}
	for _, r := range out {
		for j, v := range r {
			switch v.Kind {
			case value.KindDouble:
				r[j] = value.Double(v.D*1.001 + 1e-3)
			case value.KindVector:
				v.Vec.Data[0] = v.Vec.Data[0]*1.001 + 1e-3
			case value.KindMatrix:
				v.Mat.Data[0] = v.Mat.Data[0]*1.001 + 1e-3
			case value.KindInt:
				r[j] = value.Int(v.I + 1)
			default:
				continue
			}
			return out, true
		}
	}
	return out, false
}

// TestCorruptedResultFails: every statement's check passes on the engine's
// result and fails once one entry of it is changed.
func TestCorruptedResultFails(t *testing.T) {
	for name, build := range map[string]func(*env) (*serialSpec, error){
		"la_dense": laDense, "la_tuple": laTuple, "out_of_core": outOfCore,
	} {
		e := &env{workload: name, seed: 1, smoke: true, log: io.Discard}
		spec, err := build(e)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.config
		if spec.persist {
			cfg.DataDir = t.TempDir()
		}
		db, err := core.OpenData(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.setup(db, db.LoadTable); err != nil {
			t.Fatal(err)
		}
		for _, s := range spec.stmts {
			res, err := db.Query(s.sql)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s.name, err)
			}
			if err := s.check(res); err != nil {
				t.Errorf("%s/%s: check fails on the engine's result: %v", name, s.name, err)
			}
			bad, ok := perturb(res.Rows)
			if !ok {
				t.Fatalf("%s/%s: no numeric value to corrupt", name, s.name)
			}
			if s.check(&core.Result{Schema: res.Schema, Rows: bad}) == nil {
				t.Errorf("%s/%s: check passes a corrupted result", name, s.name)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// serve_mix: one reply that differs from the serial run is a failure.
	rows := []value.Row{{value.Int(1), value.Double(0.5)}}
	bad, _ := perturb(rows)
	st := &serveState{replies: map[string]map[replyHash]int{
		"q": {hashRows(rows): 3, hashRows(bad): 1},
	}, flops: map[string]float64{}}
	var failures []error
	verifyReplies(st, func(string, int) (*core.Result, error) {
		return &core.Result{Rows: rows}, nil
	}, func(err error) { failures = append(failures, err) })
	if len(failures) != 1 {
		t.Errorf("serve replies: %d failures, want 1: %v", len(failures), failures)
	}
	failures = nil
	verifyReplies(st, func(string, int) (*core.Result, error) {
		return nil, errors.New("boom")
	}, func(err error) { failures = append(failures, err) })
	if len(failures) != 4 {
		t.Errorf("serve replies on a failing replay: %d failures, want 4", len(failures))
	}
}

// TestDistanceMinsPerPoint compares the distance task's per-point minima,
// not only the farthest point, with brute force. Each of these seeds has a
// point whose nearest neighbour sits at the same offset in another block,
// which the same-block mask must not hide.
func TestDistanceMinsPerPoint(t *testing.T) {
	cases := []struct {
		seed  int64
		smoke bool
	}{{1, true}, {2, true}, {3, true}, {4, true}, {2047021962, false}}
	for _, c := range cases {
		if !c.smoke && testing.Short() {
			continue
		}
		_, d, b, nd := laDenseSizes(c.smoke)
		points, metric := distanceInputs(c.seed, nd, d)
		want := refMins(points, metric)
		xd, err := workload.BlockRows(points, b)
		if err != nil {
			t.Fatal(err)
		}
		db, err := core.OpenData(baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, ddl := range []string{"CREATE TABLE xd (mi INTEGER, m MATRIX[][])", "CREATE TABLE am (val MATRIX[][])"} {
			if err := db.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		if err := loadAll(db.LoadTable, []string{"xd", "am"}, xd, []value.Row{{value.Matrix(metric)}}); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(distanceMinsSQL(b))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, nd)
		for _, r := range res.Rows {
			mi, err := r[0].AsInt()
			if err != nil || r[1].Kind != value.KindVector || r[1].Vec.Len() != b {
				t.Fatalf("seed %d: bad row %v", c.seed, r)
			}
			copy(got[int(mi)*b:], r[1].Vec.Data)
		}
		for p := range want {
			if err := relClose(got[p:p+1], want[p:p+1], gramTol); err != nil {
				t.Errorf("seed %d point %d: %v", c.seed, p, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelfTimesSumToWall: on a synthetic trace, the self times of a
// statement's spans plus its unattributed time (the root's self time) sum
// to the statement's wall time, and overlapping children count once.
func TestSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{Name: "stmt", ID: 0, Parent: -1, Stmt: 7, Start: 0, End: 1000},
		{Name: "sqlparse.parse", ID: 1, Parent: 0, Stmt: 7, Start: 10, End: 40},
		{Name: "plan.build", ID: 2, Parent: 0, Stmt: 7, Start: 40, End: 90},
		{Name: "opt.optimize", ID: 3, Parent: 0, Stmt: 7, Start: 95, End: 180},
		{Name: "core.execute", ID: 4, Parent: 0, Stmt: 7, Start: 200, End: 990},
		{Name: "exec.join", ID: 5, Parent: 4, Stmt: 7, Start: 250, End: 600},
		{Name: "exec.aggregate", ID: 6, Parent: 4, Stmt: 7, Start: 600, End: 900},
	}
	self := selfTimes(spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, statement took %v", sum, spans[0].dur())
	}
	if want := time.Duration(1000 - 30 - 50 - 85 - 790); self[0] != want {
		t.Errorf("unattributed %v, want %v", self[0], want)
	}
	if want := time.Duration(790 - 350 - 300); self[4] != want {
		t.Errorf("core.execute self %v, want %v", self[4], want)
	}
	overlap := []span{
		{Name: "p", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "b", ID: 2, Parent: 0, Start: 40, End: 120},
	}
	if got := selfTimes(overlap)[0]; got != 10 {
		t.Errorf("self time with overlapping children %v, want 10", got)
	}
	if ms := layerSelfMs(spans); ms["exec.join"] != 350e-6 {
		t.Errorf("layerSelfMs exec.join = %v ms", ms["exec.join"])
	}
}

// TestLatencyGroups: groups leave out the partial tail and take medians;
// a group of 200 puts the tail at the 11th slowest, p95.
func TestLatencyGroups(t *testing.T) {
	var lat, done []time.Duration
	for i := 0; i < 450; i++ {
		lat = append(lat, time.Duration(1+i%200)*time.Millisecond)
		done = append(done, time.Duration(i)*10*time.Millisecond)
	}
	s := latencyGroups(lat, 200)
	if s.Groups != 2 || s.GroupSize != 200 || s.P50ms != 100.5 || s.TailMs != 190 || s.TailPct != 95 {
		t.Errorf("latencyGroups = %+v", s)
	}
	if s := latencyGroups(lat[:50], 200); s.Groups != 1 || s.GroupSize != 50 || s.TailMs != 40 {
		t.Errorf("short sample: %+v", s)
	}
	if r := windowedRate(done, time.Second, 4500*time.Millisecond); r != 100 {
		t.Errorf("windowedRate = %v, want 100", r)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !reflect.DeepEqual(names, sortedKeys(workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, sortedKeys(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, catalogue %d/%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, catalogue %+v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Name == "setup_s" && m.Bound < 0.25 {
			t.Errorf("setup_s bound %v is not the largest", m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, catalogue %+v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}

// gatedCounts extracts the gated counters of a run's counter report.
func gatedCounts(t *testing.T, meta map[string]any) map[string]map[string]int64 {
	t.Helper()
	raw, err := json.Marshal(meta["counters"])
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]struct {
		Gated map[string]int64 `json:"gated"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]int64{}
	for stmt, r := range rep {
		out[stmt] = r.Gated
	}
	return out
}

// TestCountersRepeat: for a fixed seed the gated per-statement counters of
// the serial workloads repeat exactly between runs and equal the values
// recorded in testdata (regenerate with -update).
func TestCountersRepeat(t *testing.T) {
	got := map[string]map[string]map[string]int64{}
	for _, w := range []string{"la_dense", "la_tuple", "out_of_core"} {
		_, m1 := smoke(t, w, false)
		_, m2 := smoke(t, w, false)
		c1, c2 := gatedCounts(t, m1), gatedCounts(t, m2)
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: gated counters differ between runs:\n%v\n%v", w, c1, c2)
		}
		got[w] = c1
	}
	path := filepath.Join("testdata", "counters_smoke.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gated counters differ from %s:\ngot  %v\nwant %v", path, got, want)
	}
}

// TestRefusesWithoutWorkload: a bad command line exits non-zero without a
// result line.
func TestRefusesWithoutWorkload(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d with %d bytes of output", code, out.Len())
	}
}
