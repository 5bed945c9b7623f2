package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"relalg/internal/core"
	"relalg/internal/opt"
	"relalg/internal/serve"
	"relalg/internal/value"
	"relalg/internal/workload"
)

// serveClients is the number of closed-loop client sessions: one per CPU,
// all from this process.
func serveClients() int { return runtime.NumCPU() }

// serveShape sizes serve_mix: a read-only vector table sv of n rows in
// `groups` groups and a scalar table ev that only INSERTs touch.
type serveShape struct {
	n, d, groups, evRows int
}

// mixStmt is one statement of the served mix.
type mixStmt struct {
	sql   string
	write bool    // an INSERT into ev; every other statement is a SELECT on sv
	flops float64 // linear-algebra work, from the shapes
}

// mix generates one client's statement stream. Some texts repeat (a few hot
// point ids, range starts, groups and limits), which the server's plan
// cache can hit; the point lookups on a random id vary their literal and
// miss.
type mix struct {
	rng    *rand.Rand
	shape  serveShape
	client int
	seq    int
}

func newMix(seed int64, client int, shape serveShape) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), shape: shape, client: client}
}

func (m *mix) next() mixStmt {
	s := m.shape
	m.seq++
	fd := float64(s.d)
	switch r := m.rng.Float64(); {
	case r < 0.10:
		id := 1_000_000_000 + m.client*100_000_000 + m.seq
		return mixStmt{write: true, sql: fmt.Sprintf("INSERT INTO ev VALUES (%d, %d, %s)",
			id, m.rng.Intn(100), strconv.FormatFloat(m.rng.Float64(), 'f', 6, 64))}
	case r < 0.40:
		return mixStmt{sql: fmt.Sprintf("SELECT id, grp, value FROM sv WHERE id = %d", m.rng.Intn(s.n))}
	case r < 0.55:
		hot := (m.rng.Intn(8)*s.n)/8 + 3
		return mixStmt{sql: fmt.Sprintf("SELECT id, grp, value FROM sv WHERE id = %d", hot)}
	case r < 0.70:
		lo := (m.rng.Intn(16) * s.n) / 16
		return mixStmt{flops: 32 * fd,
			sql: fmt.Sprintf("SELECT id, inner_product(value, value) FROM sv WHERE id >= %d AND id < %d", lo, lo+32)}
	case r < 0.85:
		g := m.rng.Intn(s.groups)
		return mixStmt{flops: float64(s.n/s.groups) * fd,
			sql: fmt.Sprintf("SELECT COUNT(*), SUM(inner_product(value, value)) FROM sv WHERE grp = %d", g)}
	default:
		lim := (1 + m.rng.Intn(8)) * s.n / 16
		return mixStmt{flops: float64(lim) * fd,
			sql: fmt.Sprintf("SELECT grp, COUNT(*), MAX(inner_product(value, value)) FROM sv WHERE id < %d GROUP BY grp", lim)}
	}
}

// replyHash fingerprints a result relation by its row-codec encoding.
type replyHash [sha256.Size]byte

func hashRows(rows []value.Row) replyHash { return sha256.Sum256(value.EncodeRows(rows)) }

// clientLog is what one client observed in one phase.
type clientLog struct {
	lat, readLat, writeLat []time.Duration
	done                   []time.Duration // completion offsets from the phase start, parallel to lat
	attempted, inserts     int
	replyBytes             int64
	flops                  float64
	errs                   []error
}

// serveState is the shared bookkeeping of a serve_mix run.
type serveState struct {
	mu sync.Mutex
	// replies counts, per checked SELECT text, how often each reply
	// encoding came back.
	replies map[string]map[replyHash]int
	flops   map[string]float64
}

func (s *serveState) record(sql string, h replyHash, flops float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.replies[sql]
	if m == nil {
		m = map[replyHash]int{}
		s.replies[sql] = m
		s.flops[sql] = flops
	}
	m[h]++
}

// runClient drives one session until the deadline (or for `count`
// statements when count > 0), closed loop: each statement waits for its
// reply before the next is sent.
func runClient(c *serve.Client, m *mix, st *serveState, start, deadline time.Time, count int, tr *tracer) *clientLog {
	log := &clientLog{}
	for i := 0; count > 0 && i < count || count == 0 && time.Now().Before(deadline); i++ {
		s := m.next()
		id := int64(m.client)<<32 | int64(m.seq)
		sp := tr.begin("serve.roundtrip", -1, id)
		t0 := time.Now()
		reply, err := c.Do(s.sql)
		took := time.Since(t0)
		tr.end(sp)
		log.attempted++
		log.lat = append(log.lat, took)
		log.done = append(log.done, time.Since(start))
		if s.write {
			log.writeLat = append(log.writeLat, took)
		} else {
			log.readLat = append(log.readLat, took)
		}
		if err == nil {
			err = reply.Err()
		}
		if err != nil {
			log.errs = append(log.errs, fmt.Errorf("%q: %w", s.sql, err))
			continue
		}
		for _, p := range reply.RowPayloads {
			log.replyBytes += int64(len(p))
		}
		log.flops += s.flops
		if s.write {
			log.inserts++
		} else {
			st.record(s.sql, hashRows(reply.Rows), s.flops)
		}
	}
	return log
}

// phase runs every client concurrently and merges their logs.
func phase(clients []*serve.Client, mixes []*mix, st *serveState, d time.Duration, count int, tr *tracer) (*clientLog, time.Duration) {
	logs := make([]*clientLog, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = runClient(clients[i], mixes[i], st, start, deadline, count, tr)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	all := &clientLog{}
	for _, l := range logs {
		all.lat = append(all.lat, l.lat...)
		all.done = append(all.done, l.done...)
		all.readLat = append(all.readLat, l.readLat...)
		all.writeLat = append(all.writeLat, l.writeLat...)
		all.attempted += l.attempted
		all.inserts += l.inserts
		all.replyBytes += l.replyBytes
		all.flops += l.flops
		all.errs = append(all.errs, l.errs...)
	}
	return all, wall
}

// runServeMix serves the database from an in-process serve.Server on
// loopback to closed-loop serve.Client sessions, then checks every reply
// against a serial in-process run of the same text.
func runServeMix(e *env) (*outcome, error) {
	shape := serveShape{n: 4096, d: 16, groups: 50, evRows: 1000}
	if e.smoke {
		shape = serveShape{n: 256, d: 4, groups: 8, evRows: 50}
	}
	data := workload.DenseVectors(e.seed, shape.n, shape.d)
	sv := workload.VectorRows(data)
	for i, r := range sv {
		sv[i] = value.Row{r[0], value.Int(int64(i % shape.groups)), r[1]}
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	ev := make([]value.Row, shape.evRows)
	for i := range ev {
		ev[i] = value.Row{value.Int(int64(i)), value.Int(rng.Int63n(100)), value.Double(rng.Float64())}
	}
	setup := func(db *core.Database, load loadFunc) error {
		for _, ddl := range []string{
			fmt.Sprintf("CREATE TABLE sv (id INTEGER, grp INTEGER, value VECTOR[%d])", shape.d),
			"CREATE TABLE ev (id INTEGER, k INTEGER, x DOUBLE)",
		} {
			if err := db.Exec(ddl); err != nil {
				return err
			}
		}
		return loadAll(load, []string{"sv", "ev"}, sv, ev)
	}

	out := newOutcome()
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	rw := &opt.RewriteStats{}
	cfg := baseConfig()
	cfg.Optimizer.Stats = rw
	out.meta["config"] = configMeta(cfg)
	odb, err := setUp(e, cfg, false, setup, out, tr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = odb.close() }()
	db := odb.db

	srv := serve.New(db, serve.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	clients := make([]*serve.Client, 0, serveClients())
	stop := func() error {
		for _, c := range clients {
			_ = c.Close()
		}
		clients = nil
		return errors.Join(srv.Shutdown(), <-served)
	}
	defer func() {
		if clients != nil {
			_ = stop()
		}
	}()
	mixes := make([]*mix, serveClients())
	for i := range mixes {
		c, err := serve.Dial(addr.String())
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		mixes[i] = newMix(e.seed, i, shape)
	}
	out.meta["server"] = srv.String() // serve.Config{}: the server's defaults

	st := &serveState{replies: map[string]map[replyHash]int{}, flops: map[string]float64{}}
	logs := []*clientLog{}
	warm, _ := phase(clients, mixes, st, 0, 100, nil)
	logs = append(logs, warm)

	runtime.GC()
	var plain, traced *clientLog
	var plainWall, tracedWall time.Duration
	var ms0, ms1 runtime.MemStats
	var peak float64
	cl0 := db.Cluster().Stats().Snapshot()
	sv0 := srv.Stats()
	if !e.trace {
		heap := startHeapSampler(heapSampleEvery, window)
		plain, plainWall = phase(clients, mixes, st, e.seconds, 0, nil)
		peak = heap.finish()
		logs = append(logs, plain)
	} else {
		plain, plainWall = phase(clients, mixes, st, e.seconds/2, 0, nil)
		logs = append(logs, plain)
		cl0 = db.Cluster().Stats().Snapshot()
		sv0 = srv.Stats()
		runtime.ReadMemStats(&ms0)
		traced, tracedWall = phase(clients, mixes, st, e.seconds/2, 0, tr)
		runtime.ReadMemStats(&ms1)
		logs = append(logs, traced)
	}
	cl1 := db.Cluster().Stats().Snapshot()
	sv1 := srv.Stats()
	if err := stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}

	inserts := 0
	for _, l := range logs {
		out.attempted += l.attempted
		inserts += l.inserts
		for _, err := range l.errs {
			out.fail(e, err)
		}
	}

	// Replay every distinct checked text serially in process: each reply
	// must be EncodeRows-identical to it.
	rewrites := map[int]float64{}
	reps := verifyReplies(st, func(sql string, k int) (*core.Result, error) {
		if !e.trace {
			return db.Query(sql)
		}
		sum := map[string]float64{}
		res, err := tracedSelect(tr, db, cfg.Optimizer, rw, sql, replayID(k), sum)
		rewrites[k] = sum["opt.rewrites_fired"]
		return res, err
	}, func(err error) { out.fail(e, err) })
	// Every acknowledged INSERT must be in ev.
	res, err := db.Query("SELECT COUNT(*) FROM ev")
	out.attempted++
	switch {
	case err != nil:
		out.fail(e, fmt.Errorf("counting ev: %w", err))
	case len(res.Rows) != 1 || res.Rows[0][0].I != int64(shape.evRows+inserts):
		out.fail(e, fmt.Errorf("ev holds %v rows, want %d", res.Rows, shape.evRows+inserts))
	}

	hits, misses := sv1.CacheHits-sv0.CacheHits, sv1.CacheMisses-sv0.CacheMisses
	out.meta["plan_cache"] = map[string]int64{"hits": hits, "misses": misses}
	out.meta["distinct_checked_texts"] = len(st.replies)
	if !e.trace {
		// Two closed-loop clients on a shared machine: a scheduling stall
		// lasting a fraction of a second moves the whole-run figures, so
		// they are medians over one-second windows and over groups of
		// statements.
		sum := latencyGroups(plain.lat, latencyGroup)
		out.values["throughput_qps"] = windowedRate(plain.done, window, e.seconds)
		out.values["latency_p50_ms"] = sum.P50ms
		out.values["latency_tail_ms"] = sum.TailMs
		out.values["peak_heap_mb"] = peak
		out.meta["latency"] = sum
		out.meta["latency_whole_run"] = summarize(plain.lat)
		return out, nil
	}

	n := float64(len(traced.lat))
	v := out.values
	rt := summarize(traced.lat)
	v["serve.roundtrip_ms_p50"] = rt.P50ms
	v["serve.read_ms_p50"] = summarize(traced.readLat).P50ms
	v["serve.write_ms_p50"] = summarize(traced.writeLat).P50ms
	if hits+misses > 0 {
		v["serve.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	v["serve.admission_waits"] = float64(sv1.AdmissionWaits - sv0.AdmissionWaits)
	v["serve.peak_concurrent"] = float64(sv1.PeakConcurrent)
	v["serve.reply_bytes_per_stmt"] = float64(traced.replyBytes) / n
	v["cluster.tuples_shuffled"] = float64(cl1.TuplesShuffled-cl0.TuplesShuffled) / n
	v["cluster.bytes_shuffled"] = float64(cl1.BytesShuffled-cl0.BytesShuffled) / n
	v["cluster.shuffle_rounds"] = float64(cl1.ShuffleRounds-cl0.ShuffleRounds) / n
	v["cluster.broadcast_rounds"] = float64(cl1.BroadcastRounds-cl0.BroadcastRounds) / n
	v["cluster.tuples_produced"] = float64(cl1.TuplesProduced-cl0.TuplesProduced) / n
	v["spill.runs"] = float64(cl1.SpillEvents-cl0.SpillEvents) / n
	v["spill.bytes"] = float64(cl1.BytesSpilled-cl0.BytesSpilled) / n
	v["opt.replans"] = float64(cl1.Replans-cl0.Replans) / n
	v["linalg.flops"] = traced.flops / n
	v["runtime.allocs_per_stmt"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	v["runtime.alloc_mb_per_stmt"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	v["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
	v["trace.overhead_frac"] = (float64(len(plain.lat))/plainWall.Seconds())/(n/tracedWall.Seconds()) - 1

	// Layer times come from the serial replay, weighted by how often the
	// clients sent each text; serve.overhead_ms is what the wire, admission
	// and session add to a SELECT's median over running the same SELECTs in
	// process.
	perStmt := map[int64]map[string]float64{}
	spans := tr.snapshot()
	self := selfTimes(spans)
	for i, s := range spans {
		if perStmt[s.Stmt] == nil {
			perStmt[s.Stmt] = map[string]float64{}
		}
		perStmt[s.Stmt][s.Name] += float64(self[i]) / 1e6
	}
	var weight, flops float64
	sums := map[string]float64{}
	var inproc []weighted
	for _, r := range reps {
		w := float64(r.weight)
		weight += w
		for _, name := range []string{"sqlparse.parse", "plan.build", "opt.optimize", "core.execute"} {
			sums[name+"_ms"] += w * perStmt[replayID(r.k)][name]
		}
		one := map[string]float64{"opt.rewrites_fired": rewrites[r.k]}
		addResult(one, r.res)
		delete(one, "opt.replans") // counted server-wide above
		for name, x := range one {
			sums[name] += w * x
		}
		flops += w * st.flops[r.text]
		inproc = append(inproc, weighted{r.ms, w})
	}
	if weight > 0 {
		for name, x := range sums {
			v[name] = x / weight
		}
		v["serve.overhead_ms"] = v["serve.read_ms_p50"] - weightedMedian(inproc)
	}
	if ex := sums["core.execute_ms"]; ex > 0 {
		v["linalg.gflops"] = flops / (ex / 1e3) / 1e9
	}
	out.tr = tr
	return out, nil
}

// replayed is one distinct checked text's serial in-process run.
type replayed struct {
	text   string
	k      int // index in sorted text order
	weight int // replies the clients received for the text
	ms     float64
	res    *core.Result
}

// replayID is the span statement id of the k-th replayed text.
func replayID(k int) int64 { return 1<<40 + int64(k) }

// verifyReplies runs every distinct checked SELECT text once, in sorted
// order, through run, and reports through fail every reply whose encoding
// differs from that run's result (or every reply of a text whose run
// fails).
func verifyReplies(st *serveState, run func(sql string, k int) (*core.Result, error), fail func(error)) []replayed {
	var reps []replayed
	for k, sql := range sortedKeys(st.replies) {
		total := 0
		for _, c := range st.replies[sql] {
			total += c
		}
		t0 := time.Now()
		res, err := run(sql, k)
		took := time.Since(t0)
		if err != nil {
			for i := 0; i < total; i++ {
				fail(fmt.Errorf("serial replay %q: %w", sql, err))
			}
			continue
		}
		want := hashRows(res.Rows)
		for h, c := range st.replies[sql] {
			for i := 0; h != want && i < c; i++ {
				fail(fmt.Errorf("%q: reply differs from the serial in-process result", sql))
			}
		}
		reps = append(reps, replayed{text: sql, k: k, weight: total, ms: float64(took) / 1e6, res: res})
	}
	return reps
}

type weighted struct{ x, w float64 }

// weightedMedian is the smallest x whose cumulative weight reaches half.
func weightedMedian(xs []weighted) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].x < s[j].x })
	var total, acc float64
	for _, x := range s {
		total += x.w
	}
	for _, x := range s {
		acc += x.w
		if acc >= total/2 {
			return x.x
		}
	}
	return s[len(s)-1].x
}
