// Command perfbench is the engine's end-to-end benchmark. It drives the
// engine through its public entry points on one of four workloads, checks
// every result, and prints the metrics by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, latency median and tail, peak heap); with --trace 1 a separate
// traced run splits each statement into the layers it calls and prints the
// per-layer metrics instead. The line before it carries the run's metadata:
// machine, Go version, engine configuration, seed and counter report.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload la_dense --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"relalg/internal/cluster"
	"relalg/internal/core"
)

// heldOutSeed is reserved for confirming a claimed gain on a seed no change
// was tuned on; tuning runs use other seeds.
const heldOutSeed = 1000003

// Every workload runs core.DefaultConfig() on this small, fixed cluster
// shape; out_of_core adds only its data directory, pool and budget.
const (
	clusterNodes    = 2
	clusterPerNode  = 2
	defaultSeconds  = 10
	heapSampleEvery = 2 * time.Millisecond
	// window is the span over which the windowed medians (peak heap and
	// serve_mix throughput) take one value each.
	window = time.Second
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*outcome, error){
	"la_dense":    func(e *env) (*outcome, error) { return runSpec(e, laDense) },
	"la_tuple":    func(e *env) (*outcome, error) { return runSpec(e, laTuple) },
	"serve_mix":   runServeMix,
	"out_of_core": func(e *env) (*outcome, error) { return runSpec(e, outOfCore) },
}

func runSpec(e *env, build func(*env) (*serialSpec, error)) (*outcome, error) {
	spec, err := build(e)
	if err != nil {
		return nil, err
	}
	return runSerial(e, spec)
}

// env is one run's settings.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	smoke    bool   // tiny sizes, for the package's own tests
	source   string // fingerprint of the sources (run.sh computes it)
	dir      string // this run's scratch directory: data directories, spill files
	log      io.Writer
}

// setupPlan is how often a run builds its database from empty: at least
// min times and until setupTime has passed, at most max times.
func (e *env) setupPlan() (lo, hi int, d time.Duration) {
	if e.smoke {
		return 2, 2, 0
	}
	return 5, 100, time.Second
}

// baseConfig is core.DefaultConfig() on the benchmark's cluster shape.
func baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Cluster.Nodes = clusterNodes
	cfg.Cluster.PartitionsPerNode = clusterPerNode
	return cfg
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	meta              map[string]any
	tr                *tracer
	errs              []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, meta: map[string]any{}}
}

// fail counts a failed statement and keeps the first few reasons.
func (o *outcome) fail(e *env, err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
		fmt.Fprintf(e.log, "perfbench: %s: %v\n", e.workload, err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: la_dense, la_tuple, serve_mix or out_of_core")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "directory for scratch files and traces")
	source := fs.String("source", "", "fingerprint of the sources, recorded in the metadata")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", sortedKeys(workloads))
		return 2
	}
	res, meta, err := measure(fn, &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		source:   *source,
		log:      stderr,
	}, *workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := errors.Join(enc.Encode(map[string]any{"meta": meta}), enc.Encode(res)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs one workload in a fresh scratch directory under workDir and
// removes the directory afterwards; a traced run leaves its spans in
// workDir/traces.
func measure(fn func(*env) (*outcome, error), e *env, workDir string) (*result, map[string]any, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	// Spill files go to os.TempDir(); keep them inside the run directory.
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer func() { _ = os.Setenv("TMPDIR", old) }()
	} else {
		defer func() { _ = os.Unsetenv("TMPDIR") }()
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, nil, err
	}
	e.dir = dir
	out, err := fn(e)
	if err != nil {
		return nil, nil, err
	}
	meta := runMeta(e)
	for k, v := range out.meta {
		meta[k] = v
	}
	if len(out.errs) > 0 {
		meta["errors"] = out.errs
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
		out.values["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
		traces := filepath.Join(workDir, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
		if err := out.tr.write(path); err != nil {
			return nil, nil, err
		}
		meta["trace_file"] = path
	}
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   pick(defs, out.values),
	}, meta, nil
}

// runMeta records the machine, toolchain, source revision and engine
// configuration next to every result.
func runMeta(e *env) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      e.workload,
		"seed":          e.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       e.seconds.Seconds(),
		"trace":         e.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": e.source,
		"clients":       clientsFor(e.workload),
	}
}

// configMeta describes an engine configuration for the metadata line.
func configMeta(cfg core.Config) map[string]any {
	c := cfg.Cluster
	return map[string]any{
		"cluster": map[string]any{
			"nodes": c.Nodes, "partitions_per_node": c.PartitionsPerNode,
			"serialize_shuffles": c.SerializeShuffles, "max_intermediate_tuples": c.MaxIntermediateTuples,
			"network_bytes_per_sec": c.NetworkBytesPerSec, "memory_budget_bytes": c.MemoryBudgetBytes,
			"faults": c.Faults != (cluster.Config{}).Faults, "kernel_workers": c.KernelWorkers(),
		},
		"optimizer": map[string]any{
			"size_aware_costing": cfg.Optimizer.SizeAwareCosting, "eager_projection": cfg.Optimizer.EagerProjection,
			"rewrites": cfg.Optimizer.Rewrites, "default_dim": cfg.Optimizer.DefaultDim,
		},
		"disable_agg_fusion":      cfg.DisableAggFusion,
		"disable_pipeline_fusion": cfg.DisablePipelineFusion,
		"batch_size":              cfg.BatchSize,
		"persistent":              cfg.DataDir != "",
		"buffer_pool_bytes":       cfg.BufferPoolBytes,
		"page_bytes":              cfg.PageBytes,
		"replan_factor":           cfg.ReplanFactor,
	}
}

// clientsFor is the number of client sessions a workload drives.
func clientsFor(workload string) int {
	if workload == "serve_mix" {
		return serveClients()
	}
	return 1
}
