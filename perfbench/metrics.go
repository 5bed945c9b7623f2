package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names; main_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the layer metrics of a traced run (--trace 1). Times and
// counts marked "/stmt" are means over the traced statements; a metric a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sqlparse.parse_ms", "ms/stmt"},
	{"plan.build_ms", "ms/stmt"},
	{"opt.optimize_ms", "ms/stmt"},
	{"opt.rewrites_fired", "count/stmt"},
	{"opt.replans", "count/stmt"},
	{"core.execute_ms", "ms/stmt"},
	{"core.load_ms", "ms"},
	{"exec.scan_ms", "ms/stmt"},
	{"exec.pipeline_ms", "ms/stmt"},
	{"exec.filter_ms", "ms/stmt"},
	{"exec.project_ms", "ms/stmt"},
	{"exec.join_ms", "ms/stmt"},
	{"exec.aggregate_ms", "ms/stmt"},
	{"exec.aggregate_shuffle_ms", "ms/stmt"},
	{"exec.sort_ms", "ms/stmt"},
	{"cluster.tuples_shuffled", "count/stmt"},
	{"cluster.bytes_shuffled", "B/stmt"},
	{"cluster.shuffle_rounds", "count/stmt"},
	{"cluster.broadcast_rounds", "count/stmt"},
	{"cluster.tuples_produced", "count/stmt"},
	{"linalg.flops", "flop/stmt"},
	{"linalg.gflops", "GFLOP/s"},
	{"spill.runs", "count/stmt"},
	{"spill.bytes", "B/stmt"},
	{"spill.io_ms", "ms/stmt"},
	{"storage.pool_hits", "count/stmt"},
	{"storage.pool_misses", "count/stmt"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.pool_evictions", "count/stmt"},
	{"storage.pool_writebacks", "count/stmt"},
	{"storage.page_writes", "count"},
	{"storage.bytes_per_user_byte", "ratio"},
	{"serve.roundtrip_ms_p50", "ms"},
	{"serve.read_ms_p50", "ms"},
	{"serve.write_ms_p50", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.plan_cache_hit_ratio", "ratio"},
	{"serve.admission_waits", "count"},
	{"serve.peak_concurrent", "count"},
	{"serve.reply_bytes_per_stmt", "B/stmt"},
	{"runtime.allocs_per_stmt", "count/stmt"},
	{"runtime.alloc_mb_per_stmt", "MB/stmt"},
	{"runtime.gc_cycles", "count/stmt"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick fills the metrics of defs from values, defaulting absent ones to 0,
// so every run prints exactly the catalogue's names.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// tailRank is the index into an ascending sample of size n that leaves
// exactly ten samples beyond it: the highest percentile with at least ten
// samples past it. It returns -1 when n <= 10.
func tailRank(n int) int {
	if n <= 10 {
		return -1
	}
	return n - 11
}

// latencySummary is a latency sample's median and tail.
type latencySummary struct {
	P50ms, TailMs, TailPct float64
	Samples                int
}

func summarize(lat []time.Duration) latencySummary {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	s := latencySummary{P50ms: quantile(ms, 0.5), Samples: len(ms)}
	if r := tailRank(len(ms)); r >= 0 {
		s.TailMs = ms[r]
		s.TailPct = 100 * float64(r+1) / float64(len(ms))
	} else if len(ms) > 0 {
		s.TailMs, s.TailPct = ms[len(ms)-1], 100
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// heapSampler polls the Go heap in use (object bytes plus unused span
// bytes) and keeps the highest reading of each window.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak []uint64 // per window
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func startHeapSampler(every, window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		samples[i].Name = name
	}
	start := time.Now()
	read := func() {
		metrics.Read(samples)
		var v uint64
		for _, s := range samples {
			if s.Value.Kind() == metrics.KindUint64 {
				v += s.Value.Uint64()
			}
		}
		w := int(time.Since(start) / window)
		h.mu.Lock()
		for len(h.peak) <= w {
			h.peak = append(h.peak, 0)
		}
		h.peak[w] = max(h.peak[w], v)
		h.mu.Unlock()
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the median over the
// windows of each window's peak, in MB. A single GC cycle that happens to
// let the heap grow further than usual moves one window, not the figure.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	peaks := h.peak
	if len(peaks) > 1 {
		peaks = peaks[:len(peaks)-1] // the last window is partial
	}
	mb := make([]float64, 0, len(peaks))
	for _, p := range peaks {
		mb = append(mb, float64(p)/(1<<20))
	}
	return median(mb)
}

// latencyGroup is how many serve_mix statements, in completion order, one
// latency summary covers; latencyGroups reports the median over such groups.
const latencyGroup = 200

// groupSummary is the median over groups of each group's latency median
// and tail, with the tail's percentile and the group size.
type groupSummary struct {
	P50ms, TailMs, TailPct float64
	Groups, GroupSize      int
}

// latencyGroups splits latencies, in completion order, into consecutive
// groups of `size` (one group when there are fewer; a final partial group
// is left out) and returns the medians over groups of each group's median
// and tail. The group size fixes the tail's percentile (p95 for 200), so a
// stall that lasts a fraction of a second moves a few groups, not the
// figure, and a faster engine does not move the percentile itself.
func latencyGroups(lat []time.Duration, size int) groupSummary {
	n := len(lat) / size
	if n == 0 {
		n, size = 1, len(lat)
	}
	var p50, tail, pct []float64
	for g := 0; g < n; g++ {
		s := summarize(lat[g*size : (g+1)*size])
		p50 = append(p50, s.P50ms)
		tail = append(tail, s.TailMs)
		pct = append(pct, s.TailPct)
	}
	return groupSummary{P50ms: median(p50), TailMs: median(tail), TailPct: median(pct), Groups: n, GroupSize: size}
}

// windowedRate is the median over full windows of length w of the
// statements completed per second (completion offsets from the phase
// start); a phase shorter than one window is one window.
func windowedRate(done []time.Duration, w, phase time.Duration) float64 {
	n := int(phase / w)
	if n == 0 {
		n, w = 1, phase
	}
	counts := make([]float64, n)
	for _, at := range done {
		if k := int(at / w); k < n {
			counts[k]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}
