package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"relalg/internal/catalog"
	"relalg/internal/cluster"
	"relalg/internal/exec"
	"relalg/internal/linalg"
	"relalg/internal/plan"
	"relalg/internal/types"
	"relalg/internal/value"
)

// This file benchmarks the kernel layer itself — the tiled matmul, the
// parallel transpose/elementwise dispatch, the symmetric rank-k Gram update,
// and the fused scan→filter→project pipeline — against their seed serial
// baselines, and emits the results as machine-readable JSON
// (BENCH_kernels.json) so the repo carries a perf trajectory from commit to
// commit.

// KernelConfig sizes one kernel benchmark run.
type KernelConfig struct {
	MatN     int   // square matrix side for matmul/transpose/elementwise
	GramRows int   // vectors in the Gram leg's window
	GramDim  int   // their dimension
	PipeRows int   // rows pushed through the executor pipeline
	Reps     int   // timing repetitions; the minimum is reported
	Workers  []int // worker counts to sweep
	Seed     int64
}

// DefaultKernelConfig is the committed-snapshot configuration: the paper-ish
// 512×512 product, one partition's share of the la_dense vector Gram (1000
// vectors at d=200), and a pipeline long enough to amortize setup.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{MatN: 512, GramRows: 1000, GramDim: 200, PipeRows: 200000, Reps: 9, Workers: []int{1, 2, 4, 8}, Seed: 1}
}

// SmokeKernelConfig shrinks everything so verify.sh can run the suite as a
// seconds-long smoke test.
func SmokeKernelConfig() KernelConfig {
	return KernelConfig{MatN: 96, GramRows: 101, GramDim: 200, PipeRows: 20000, Reps: 2, Workers: []int{1, 4}, Seed: 1}
}

// KernelResult is one (kernel, workers) measurement. Reference rows carry
// the serial seed kernel's numbers; tiled/parallel/fused rows carry a
// Speedup relative to their reference.
type KernelResult struct {
	Kernel     string  `json:"kernel"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	GFLOPS     float64 `json:"gflops,omitempty"`
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
	Speedup    float64 `json:"speedup_vs_ref,omitempty"`
}

// KernelReport is the full suite outcome; it serializes to
// BENCH_kernels.json.
type KernelReport struct {
	GeneratedAt string         `json:"generated_at"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	MatN        int            `json:"mat_n"`
	GramRows    int            `json:"gram_rows"`
	GramDim     int            `json:"gram_dim"`
	PipeRows    int            `json:"pipeline_rows"`
	Reps        int            `json:"reps"`
	Results     []KernelResult `json:"results"`
}

// JSON renders the report for BENCH_kernels.json.
func (r *KernelReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the report as a human-readable table.
func (r *KernelReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kernel suite (mat %dx%d, gram %d×%d, pipeline %d rows, min of %d reps, GOMAXPROCS=%d, %d CPUs)\n",
		r.MatN, r.MatN, r.GramRows, r.GramDim, r.PipeRows, r.Reps, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(&b, "%-22s %8s %12s %10s %14s %9s\n", "kernel", "workers", "seconds", "GFLOP/s", "rows/s", "speedup")
	for _, res := range r.Results {
		gf, rps, sp := "", "", ""
		if res.GFLOPS > 0 {
			gf = fmt.Sprintf("%.2f", res.GFLOPS)
		}
		if res.RowsPerSec > 0 {
			rps = fmt.Sprintf("%.0f", res.RowsPerSec)
		}
		if res.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", res.Speedup)
		}
		fmt.Fprintf(&b, "%-22s %8d %12.6f %10s %14s %9s\n", res.Kernel, res.Workers, res.Seconds, gf, rps, sp)
	}
	return b.String()
}

// bestOf runs fn reps times and returns the fastest wall-clock seconds.
func bestOf(reps int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now() //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
		if err := fn(); err != nil {
			return 0, err
		}
		el := time.Since(start).Seconds()
		if i == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// bestOfPair alternates a/b reps back to back and returns each side's
// fastest seconds, so a ratio of the two sees the same machine conditions.
func bestOfPair(reps int, a, b func() error) (float64, float64, error) {
	bestA, bestB := 0.0, 0.0
	for i := 0; i < reps; i++ {
		start := time.Now() //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
		if err := a(); err != nil {
			return 0, 0, err
		}
		elA := time.Since(start).Seconds()
		start = time.Now() //lint:ignore nodeterminism the wall-clock reading is the measured benchmark output, not simulation state
		if err := b(); err != nil {
			return 0, 0, err
		}
		elB := time.Since(start).Seconds()
		if i == 0 || elA < bestA {
			bestA = elA
		}
		if i == 0 || elB < bestB {
			bestB = elB
		}
	}
	return bestA, bestB, nil
}

// RunKernels executes the suite and returns the report.
func RunKernels(cfg KernelConfig) (*KernelReport, error) {
	rep := &KernelReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //lint:ignore nodeterminism the snapshot timestamp is report metadata, not simulation state
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		MatN:        cfg.MatN,
		GramRows:    cfg.GramRows,
		GramDim:     cfg.GramDim,
		PipeRows:    cfg.PipeRows,
		Reps:        cfg.Reps,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.MatN
	A, B := randMatrix(rng, n, n), randMatrix(rng, n, n)
	matFlops := 2 * float64(n) * float64(n) * float64(n)
	elemOps := float64(n) * float64(n)

	// Matrix multiply: seed ikj kernel vs the tiled kernel at each fan-out.
	// Ref and tiled reps are interleaved per worker count so slow machine
	// drift (thermal throttling, noisy neighbours) cancels out of the
	// reported ratio instead of penalizing whichever kernel ran later.
	refBest := 0.0
	var matRows []KernelResult
	for _, w := range cfg.Workers {
		refSec, sec, err := bestOfPair(cfg.Reps,
			func() error { _, err := linalg.RefMulMat(A, B); return err },
			func() error { _, err := linalg.ParallelMulMat(A, B, w); return err })
		if err != nil {
			return nil, err
		}
		if refBest == 0 || refSec < refBest {
			refBest = refSec
		}
		matRows = append(matRows, KernelResult{Kernel: "matmul", Workers: w, Seconds: sec, GFLOPS: matFlops / sec / 1e9, Speedup: refSec / sec})
	}
	rep.add(KernelResult{Kernel: "matmul_ref", Workers: 1, Seconds: refBest, GFLOPS: matFlops / refBest / 1e9})
	for _, row := range matRows {
		rep.add(row)
	}

	// Transpose: blocked serial vs parallel dispatch (rate = element moves).
	refSec, err := bestOf(cfg.Reps, func() error { _ = A.Transpose(); return nil })
	if err != nil {
		return nil, err
	}
	rep.add(KernelResult{Kernel: "transpose_ref", Workers: 1, Seconds: refSec, GFLOPS: elemOps / refSec / 1e9})
	for _, w := range cfg.Workers {
		sec, err := bestOf(cfg.Reps, func() error { _ = linalg.ParallelTranspose(A, w); return nil })
		if err != nil {
			return nil, err
		}
		rep.add(KernelResult{Kernel: "transpose", Workers: w, Seconds: sec, GFLOPS: elemOps / sec / 1e9, Speedup: refSec / sec})
	}

	// Elementwise add, standing in for the whole map family (+,-,⊙,÷ share
	// the dispatch and differ only in the innermost arithmetic).
	refSec, err = bestOf(cfg.Reps, func() error { _, err := A.Add(B); return err })
	if err != nil {
		return nil, err
	}
	rep.add(KernelResult{Kernel: "elementwise_add_ref", Workers: 1, Seconds: refSec, GFLOPS: elemOps / refSec / 1e9})
	for _, w := range cfg.Workers {
		sec, err := bestOf(cfg.Reps, func() error { _, err := linalg.ParallelAdd(A, B, w); return err })
		if err != nil {
			return nil, err
		}
		rep.add(KernelResult{Kernel: "elementwise_add", Workers: w, Seconds: sec, GFLOPS: elemOps / sec / 1e9, Speedup: refSec / sec})
	}

	// Gram: a window of vectors accumulated one rank-1 OuterAddInto per row
	// (the seed kernel) vs one symmetric RankKAddInto. Rates count the full
	// 2·n·d² flops for both, so the speedup includes the skipped triangle.
	// The two must agree bit for bit, or the run fails.
	if err := rep.gram(cfg, rng); err != nil {
		return nil, err
	}

	// Executor pipeline: scan→filter→project, stage-at-a-time vs fused, with
	// the worker count as the cluster's partition fan-out.
	for _, w := range cfg.Workers {
		unfused, err := benchPipeline(cfg, w, true)
		if err != nil {
			return nil, err
		}
		rep.add(KernelResult{Kernel: "pipeline_unfused", Workers: w, Seconds: unfused, RowsPerSec: float64(cfg.PipeRows) / unfused})
		fused, err := benchPipeline(cfg, w, false)
		if err != nil {
			return nil, err
		}
		rep.add(KernelResult{Kernel: "pipeline_fused", Workers: w, Seconds: fused, RowsPerSec: float64(cfg.PipeRows) / fused, Speedup: unfused / fused})
	}
	return rep, nil
}

func (r *KernelReport) add(res KernelResult) { r.Results = append(r.Results, res) }

// gram runs the Gram leg and adds its gram_ref and gram rows.
func (r *KernelReport) gram(cfg KernelConfig, rng *rand.Rand) error {
	rows := randMatrix(rng, cfg.GramRows, cfg.GramDim)
	vecs := make([]*linalg.Vector, rows.Rows)
	data := make([][]float64, rows.Rows)
	for i := range vecs {
		data[i] = rows.Row(i)
		vecs[i] = &linalg.Vector{Data: data[i]}
	}
	d := cfg.GramDim
	ref, win := linalg.NewMatrix(d, d), linalg.NewMatrix(d, d)
	refSec, sec, err := bestOfPair(cfg.Reps,
		func() error {
			clear(ref.Data)
			for _, v := range vecs {
				if err := v.OuterAddInto(ref, v); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			clear(win.Data)
			return linalg.RankKAddInto(win, data, data)
		})
	if err != nil {
		return err
	}
	for i, x := range ref.Data {
		if math.Float64bits(x) != math.Float64bits(win.Data[i]) {
			return fmt.Errorf("bench: gram: window kernel differs from per-row accumulation at (%d,%d)", i/d, i%d)
		}
	}
	flops := 2 * float64(cfg.GramRows) * float64(d) * float64(d)
	r.add(KernelResult{Kernel: "gram_ref", Workers: 1, Seconds: refSec, GFLOPS: flops / refSec / 1e9})
	r.add(KernelResult{Kernel: "gram", Workers: 1, Seconds: sec, GFLOPS: flops / sec / 1e9, Speedup: refSec / sec})
	return nil
}

func randMatrix(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// benchTables is a minimal in-memory TableSource for the pipeline benchmark.
type benchTables map[string][][]value.Row

// TableParts implements exec.TableSource.
func (b benchTables) TableParts(name string) ([][]value.Row, error) {
	parts, ok := b[name]
	if !ok {
		return nil, fmt.Errorf("bench: no table %q", name)
	}
	return parts, nil
}

// benchPipeline times one scan→filter→project query over PipeRows rows on a
// w-partition cluster, with pipeline fusion on or off.
func benchPipeline(cfg KernelConfig, w int, disableFusion bool) (float64, error) {
	cl := cluster.New(cluster.Config{Nodes: 1, PartitionsPerNode: w})
	rows := make([]value.Row, cfg.PipeRows)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 97))}
	}
	tables := benchTables{"pts": cl.ScatterRoundRobin(rows)}
	meta := catalog.NewTableMeta("pts", catalog.Schema{Cols: []catalog.Column{
		{Name: "a", Type: types.TInt},
		{Name: "b", Type: types.TInt},
	}}, int64(cfg.PipeRows))
	scan := &plan.Scan{Table: meta, Out: plan.Schema{{Name: "a", T: types.TInt}, {Name: "b", T: types.TInt}}}
	colA := &plan.Col{Idx: 0, Name: "a", T: types.TInt}
	colB := &plan.Col{Idx: 1, Name: "b", T: types.TInt}
	pred := &plan.Binary{Op: "<", Kind: plan.BinCompare, L: colB,
		R: &plan.Const{V: value.Int(48), T: types.TInt}, T: types.TBool}
	proj := &plan.Project{
		Input: &plan.Filter{Input: scan, Pred: pred},
		Exprs: []plan.Expr{
			&plan.Binary{Op: "+", Kind: plan.BinArith, L: colA, R: colB, T: types.TInt},
			colB,
		},
		Out: plan.Schema{{Name: "s", T: types.TInt}, {Name: "b", T: types.TInt}},
	}
	ctx := &exec.Context{Cluster: cl, Tables: tables, Timings: exec.NewTimings(), DisablePipelineFusion: disableFusion}
	return bestOf(cfg.Reps, func() error {
		_, err := exec.Run(ctx, proj)
		return err
	})
}
