package exec

import (
	"fmt"
	"sync"

	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// keyStrings renders join/group key expressions for partitioning-property
// comparison.
func keyStrings(keys []plan.Expr) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evalKeys evaluates key expressions against a row.
func evalKeys(ec *plan.EvalCtx, keys []plan.Expr, row value.Row) ([]value.Value, error) {
	out := make([]value.Value, len(keys))
	for i, k := range keys {
		v, err := k.Eval(ec, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func hashVals(vals []value.Value) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= v.Hash()
		h *= prime64
	}
	return h
}

// valsEqual compares key tuples with SQL semantics (numeric kinds compare by
// value; NULL equals NULL for grouping purposes).
func valsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNumeric() && b[i].IsNumeric() {
			x, _ := a[i].AsDouble()
			y, _ := b[i].AsDouble()
			if x != y {
				return false
			}
			continue
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// projectSpec is a projection fused into a join: each surviving
// concatenated row is transformed through exprs before materializing.
type projectSpec struct {
	exprs []plan.Expr
	out   plan.Schema
}

// emit applies the fused projection (if any) to a concatenated row.
func (p *projectSpec) emit(ec *plan.EvalCtx, concat value.Row) (value.Row, error) {
	if p == nil {
		return concat, nil
	}
	out := make(value.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(ec, concat)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func runJoin(ctx *Context, j *plan.Join) (*Relation, error) {
	return runJoinWith(ctx, j, nil)
}

func runJoinWith(ctx *Context, j *plan.Join, proj *projectSpec) (*Relation, error) {
	left, err := Run(ctx, j.L)
	if err != nil {
		return nil, err
	}
	right, err := Run(ctx, j.R)
	if err != nil {
		return nil, err
	}
	defer ctx.Timings.Track("join")()

	lkeyStr := keyStrings(j.LKeys)
	rkeyStr := keyStrings(j.RKeys)

	// Shuffle each side unless it is already hash-partitioned on its join
	// keys (or everything is on a single partition already).
	lparts := left.Parts
	if !left.Single && !sameKeys(left.HashKeys, lkeyStr) {
		lparts, err = shuffleByKeys(ctx, left.Parts, j.LKeys)
		if err != nil {
			return nil, err
		}
	}
	rparts := right.Parts
	bothSingle := left.Single && right.Single
	if !bothSingle {
		if left.Single {
			// The left side lives on one partition; bring the right side
			// there rather than shuffling (cheaper for tiny left sides is
			// the reverse, but correctness first: co-locate on partitions).
			lparts, err = shuffleByKeys(ctx, left.Parts, j.LKeys)
			if err != nil {
				return nil, err
			}
		}
		if !sameKeys(right.HashKeys, rkeyStr) || right.Single {
			rparts, err = shuffleByKeys(ctx, right.Parts, j.RKeys)
			if err != nil {
				return nil, err
			}
		}
	}

	out := make([][]value.Row, ctx.Cluster.Partitions())
	err = ctx.Cluster.ParallelTasks("hash join", taskObs(ctx), func(part, attempt int) (func() error, error) {
		// Build on the smaller side of this partition.
		lrows, rrows := lparts[part], rparts[part]
		buildLeft := len(lrows) <= len(rrows)

		buildRows, probeRows := lrows, rrows
		buildKeys, probeKeys := j.LKeys, j.RKeys
		if !buildLeft {
			buildRows, probeRows = rrows, lrows
			buildKeys, probeKeys = j.RKeys, j.LKeys
		}
		pj := &partJoin{
			ctx:       ctx,
			ec:        ctx.EvalCtx(),
			j:         j,
			proj:      proj,
			buildKeys: buildKeys,
			probeKeys: probeKeys,
			buildLeft: buildLeft,
			charge:    newCharger(ctx, "hash join"),
			part:      part,
			attempt:   attempt,
		}
		if err := pj.run(buildRows, probeRows); err != nil {
			return nil, err
		}
		return func() error {
			out[part] = pj.rows
			return pj.charge.commit()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rel := &Relation{Schema: j.Out, Parts: out, HashKeys: lkeyStr}
	if proj != nil {
		// The projection invalidates the key-expression column indexes.
		rel.Schema = proj.out
		rel.HashKeys = nil
	}
	return rel, nil
}

// joinBucket is one build-side entry of the hash table: the evaluated key
// tuple plus the source row.
type joinBucket struct {
	keys []value.Value
	row  value.Row
}

// partJoin joins one partition's build and probe slices, going out-of-core
// (grace hash join) when the memory governor denies the build table its
// working set.
type partJoin struct {
	ctx       *Context
	ec        *plan.EvalCtx
	j         *plan.Join
	proj      *projectSpec
	buildKeys []plan.Expr
	probeKeys []plan.Expr
	buildLeft bool
	charge    *charger
	part      int
	attempt   int // owning task attempt; keys spill write-fault draws
	em        *batchEmitter
	rows      []value.Row
}

// maxGraceDepth bounds the recursive re-partitioning of a grace join; at the
// limit the build table is forced into memory (skew on a single key cannot be
// subdivided by re-hashing it).
const maxGraceDepth = 3

// run joins buildRows against probeRows. Without a memory budget this is the
// strictly-in-memory hash join; with one, a denied build-table reservation
// switches the partition to grace mode.
func (pj *partJoin) run(buildRows, probeRows []value.Row) error {
	if !pj.ctx.spillEnabled() {
		table, _, err := pj.buildTable(buildRows, nil)
		if err != nil {
			return err
		}
		return pj.probe(table, probeRows)
	}
	res := pj.ctx.Spill.Governor().Reservation("hash join build")
	defer res.Release()
	table, ok, err := pj.buildTable(buildRows, res.Grow)
	if err != nil {
		return err
	}
	if ok {
		return pj.probe(table, probeRows)
	}
	// The build side does not fit. Discard the partial table (re-reading the
	// original slice keeps the spill files in input order; draining the map
	// would write them in nondeterministic map order) and grace-partition.
	res.Reset()
	return pj.grace(buildRows, probeRows, res, 0)
}

// buildTable builds the hash table over rows, in input order, with columnar
// key evaluation and hashing. admit, when non-nil, is asked for each row's
// footprint before the row enters the table; a refusal aborts the build and
// returns ok=false.
func (pj *partJoin) buildTable(rows []value.Row, admit func(bytes int64) bool) (map[uint64][]joinBucket, bool, error) {
	table := make(map[uint64][]joinBucket, len(rows))
	var (
		view batchView
		ke   keyEval
	)
	width := viewWidth(rows)
	win := pj.ctx.window()
	for lo := 0; lo < len(rows); lo += win {
		hi := min(lo+win, len(rows))
		view.reset(rows, lo, hi, width)
		if err := ke.eval(pj.ec, pj.buildKeys, &view); err != nil {
			return nil, false, err
		}
		for i := 0; i < hi-lo; i++ {
			r := rows[lo+i]
			if admit != nil && !admit(rowFootprint(r)+ke.keyFootprintAt(i)) {
				return nil, false, nil
			}
			h := ke.hashes[i]
			table[h] = append(table[h], joinBucket{keys: ke.materializeAt(i), row: r})
		}
	}
	return table, true, nil
}

// probe probes probeRows against the table in windows: probe keys and
// hashes are computed columnar, bucket scans compare column lanes against the
// stored key tuples without materializing probe-side tuples, and each
// window's matches emit through the vectorized residual/projection path in
// match order.
func (pj *partJoin) probe(table map[uint64][]joinBucket, probeRows []value.Row) error {
	var (
		view   batchView
		ke     keyEval
		mb, mp []value.Row
	)
	if pj.em == nil {
		pj.em = newBatchEmitter(pj)
	}
	width := viewWidth(probeRows)
	win := pj.ctx.window()
	for lo := 0; lo < len(probeRows); lo += win {
		hi := min(lo+win, len(probeRows))
		view.reset(probeRows, lo, hi, width)
		if err := ke.eval(pj.ec, pj.probeKeys, &view); err != nil {
			return err
		}
		mb, mp = mb[:0], mp[:0]
		for i := 0; i < hi-lo; i++ {
			bucket := table[ke.hashes[i]]
			if len(bucket) == 0 {
				continue
			}
			pr := probeRows[lo+i]
			for _, b := range bucket {
				if !keyTupleEqual(ke.cols, i, b.keys) {
					continue
				}
				mb = append(mb, b.row)
				mp = append(mp, pr)
			}
		}
		if err := pj.em.flush(mb, mp); err != nil {
			return err
		}
	}
	return nil
}

// graceShare is the partition's fixed share of the memory budget. Grace
// fanout sizes sub-partitions to fit it, and a sub-build that still exceeds
// it recurses. Judging sub-builds against this fixed share, rather than
// against whatever the shared governor has free at that moment, keeps the
// recursion — and so the output order — independent of what the other
// partitions happen to hold.
func (pj *partJoin) graceShare() int64 {
	share := pj.ctx.Spill.Governor().Budget() / int64(pj.ctx.Cluster.Partitions())
	return max(share, minGraceShare)
}

// graceFanout picks the sub-partition count: enough files that the average
// sub-build is half the partition's budget share, so hash skew rarely pushes
// one over it into a recursion, clamped to keep file counts sane.
func (pj *partJoin) graceFanout(buildRows []value.Row) int {
	var est int64
	for _, r := range buildRows {
		est += rowFootprint(r)
	}
	f := int(2*est/pj.graceShare()) + 1
	if f < 4 {
		f = 4
	}
	if f > 64 {
		f = 64
	}
	return f
}

// minGraceShare floors the per-partition budget share used for fanout
// estimation, so a tiny budget doesn't explode the file count.
const minGraceShare = 16 << 10

// grace runs the out-of-core join: both sides are hash-partitioned into F
// spill files by a salted re-hash of the join keys, then each sub-partition
// pair is joined independently — build sides that still don't fit recurse with
// a fresh salt until maxGraceDepth. Sub-partitions are processed in index
// order and each file preserves input order, so the output is deterministic
// (though bucket-major, unlike the in-memory probe order).
func (pj *partJoin) grace(buildRows, probeRows []value.Row, res *spill.Reservation, depth int) error {
	f := pj.graceFanout(buildRows)
	salt := graceSalt(depth)
	buildRuns, err := pj.scatterSide("join-build", pj.buildKeys, buildRows, f, salt)
	if err != nil {
		return err
	}
	probeRuns, err := pj.scatterSide("join-probe", pj.probeKeys, probeRows, f, salt)
	if err != nil {
		removeRunSlice(buildRuns)
		return err
	}
	for i := 0; i < f; i++ {
		err := pj.joinRuns(buildRuns[i], probeRuns[i], res, depth)
		buildRuns[i], probeRuns[i] = nil, nil
		if err != nil {
			removeRunSlice(buildRuns)
			removeRunSlice(probeRuns)
			return err
		}
	}
	return nil
}

// joinRuns joins one sub-partition pair and removes its run files: the
// build side is re-read whole, the probe side streams in windows.
func (pj *partJoin) joinRuns(buildRun, probeRun *spill.Run, res *spill.Reservation, depth int) error {
	defer res.Reset()
	if buildRun.Rows == 0 || probeRun.Rows == 0 {
		// No matches possible; just reclaim the disk.
		if err := buildRun.Remove(); err != nil {
			return err
		}
		return probeRun.Remove()
	}
	subBuild, err := readRun(buildRun)
	if err != nil {
		return err
	}
	if err := buildRun.Remove(); err != nil {
		return err
	}
	share, last := pj.graceShare(), depth+1 >= maxGraceDepth
	table, ok, err := pj.buildTable(subBuild, func(bytes int64) bool {
		if !last && res.Held()+bytes > share {
			return false
		}
		res.Force(bytes) // within the share, or unsplittable at max depth
		return true
	})
	if err != nil {
		_ = probeRun.Remove() // the build error is the actionable one
		return err
	}
	if !ok {
		// Still too big: recurse with the next salt so rows re-scatter.
		res.Reset()
		subProbe, err := readRun(probeRun)
		if err != nil {
			return err
		}
		if err := probeRun.Remove(); err != nil {
			return err
		}
		return pj.grace(subBuild, subProbe, res, depth+1)
	}
	rd, err := probeRun.Reader()
	if err != nil {
		return err
	}
	win := pj.ctx.window()
	buf := make([]value.Row, 0, win)
	for more := true; more; {
		var row value.Row
		if row, more, err = rd.Next(); err != nil {
			break
		}
		if more {
			buf = append(buf, row)
		}
		if len(buf) == win || !more {
			if err = pj.probe(table, buf); err != nil {
				break
			}
			buf = buf[:0]
		}
	}
	if err != nil {
		_ = rd.Close()
		return err
	}
	if err := rd.Close(); err != nil {
		return err
	}
	return probeRun.Remove()
}

// scatterSide hash-scatters one side's rows into f run files by
// mix64(keyHash^salt) % f, preserving input order within each file.
func (pj *partJoin) scatterSide(label string, keys []plan.Expr, rows []value.Row, f int, salt uint64) ([]*spill.Run, error) {
	writers := make([]*spill.Writer, f)
	abortAll := func() {
		for _, w := range writers {
			if w != nil {
				_ = w.Abort() // the original error is the actionable one
			}
		}
	}
	for i := range writers {
		w, err := pj.ctx.Spill.NewWriterAt(fmt.Sprintf("%s-p%d-%d", label, pj.part, i), pj.attempt)
		if err != nil {
			abortAll()
			return nil, err
		}
		writers[i] = w
	}
	var (
		view batchView
		ke   keyEval
	)
	width := viewWidth(rows)
	win := pj.ctx.window()
	for lo := 0; lo < len(rows); lo += win {
		hi := min(lo+win, len(rows))
		view.reset(rows, lo, hi, width)
		if err := ke.eval(pj.ec, keys, &view); err != nil {
			abortAll()
			return nil, err
		}
		for i := 0; i < hi-lo; i++ {
			idx := int(mix64(ke.hashes[i]^salt) % uint64(f))
			if err := writers[idx].Append(rows[lo+i]); err != nil {
				abortAll()
				return nil, err
			}
		}
	}
	runs := make([]*spill.Run, f)
	for i, w := range writers {
		run, err := w.Finish()
		if err != nil {
			writers[i] = nil
			abortAll()
			removeRunSlice(runs)
			return nil, err
		}
		writers[i] = nil
		runs[i] = run
	}
	return runs, nil
}

// readRun materializes a run's rows back into memory.
func readRun(run *spill.Run) ([]value.Row, error) {
	rd, err := run.Reader()
	if err != nil {
		return nil, err
	}
	rows := make([]value.Row, 0, run.Rows)
	for {
		row, more, err := rd.Next()
		if err != nil {
			_ = rd.Close()
			return nil, err
		}
		if !more {
			break
		}
		rows = append(rows, row)
	}
	if err := rd.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// removeRunSlice best-effort-removes runs on error paths (nil entries are
// already handled); Manager.Close sweeps anything left behind.
func removeRunSlice(runs []*spill.Run) {
	for _, r := range runs {
		if r != nil {
			_ = r.Remove()
		}
	}
}

// mix64 is the splitmix64 finalizer: it decorrelates the sub-partition index
// from the partition shuffle's own use of the key hash, so grace files don't
// all collapse into one bucket.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// graceSalt varies the scatter per recursion depth so a sub-partition that
// recurses actually re-distributes.
func graceSalt(depth int) uint64 {
	return mix64(0x9e3779b97f4a7c15 * uint64(depth+1))
}

// charger batches intermediate-tuple accounting so the budget guard fires
// while a runaway join is still producing, not after it has materialized
// everything (the mechanism behind the paper's "Fail" entries). It splits
// the accounting along the task runner's compute/commit line: tick (compute)
// only peeks at the budget, so an attempt that is retried or loses a
// speculation race charges nothing; commit performs the one definitive
// charge for the winning attempt.
type charger struct {
	ctx        *Context
	op         string
	total      int64 // tuples this attempt has produced
	sinceCheck int64
}

func newCharger(ctx *Context, op string) *charger { return &charger{ctx: ctx, op: op} }

// tick counts one produced tuple and periodically peeks at the budget so a
// runaway operator aborts mid-production.
func (c *charger) tick() error {
	c.total++
	c.sinceCheck++
	if c.sinceCheck >= 4096 {
		c.sinceCheck = 0
		return opErr(c.op, c.ctx.Cluster.CheckBudget(c.total))
	}
	return nil
}

// tickN counts k produced tuples, peeking at the budget at the same points k
// single ticks would.
func (c *charger) tickN(k int) error {
	for ; k > 0; k-- {
		if err := c.tick(); err != nil {
			return err
		}
	}
	return nil
}

// commit charges everything this attempt produced; the task runner invokes
// it exactly once, from the winning attempt.
func (c *charger) commit() error {
	if c.total == 0 {
		return nil
	}
	return opErr(c.op, c.ctx.Cluster.ChargeTuples(c.total))
}

func shuffleByKeys(ctx *Context, parts [][]value.Row, keys []plan.Expr) ([][]value.Row, error) {
	p := ctx.Cluster.Partitions()
	// The destination function runs concurrently across source partitions;
	// record the first evaluation error under a lock.
	var (
		mu      sync.Mutex
		evalErr error
	)
	ec := ctx.EvalCtx()
	out, err := ctx.Cluster.ShuffleByObs(taskObs(ctx), parts, func(r value.Row) int {
		kv, err := evalKeys(ec, keys, r)
		if err != nil {
			mu.Lock()
			if evalErr == nil {
				evalErr = err
			}
			mu.Unlock()
			return 0
		}
		return int(hashVals(kv) % uint64(p))
	})
	if err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

func runCross(ctx *Context, c *plan.Cross) (*Relation, error) {
	return runCrossWith(ctx, c, nil)
}

func runCrossWith(ctx *Context, c *plan.Cross, proj *projectSpec) (*Relation, error) {
	left, err := Run(ctx, c.L)
	if err != nil {
		return nil, err
	}
	right, err := Run(ctx, c.R)
	if err != nil {
		return nil, err
	}
	defer ctx.Timings.Track("join")()

	// Broadcast the smaller side (by rows); the bigger side stays in place.
	broadcastRight := right.NumRows() <= left.NumRows()
	var big, small *Relation
	if broadcastRight {
		big, small = left, right
	} else {
		big, small = right, left
	}
	smallParts, err := ctx.Cluster.BroadcastObs(taskObs(ctx), small.Parts)
	if err != nil {
		return nil, err
	}

	out := make([][]value.Row, ctx.Cluster.Partitions())
	ec := ctx.EvalCtx()
	err = ctx.Cluster.ParallelTasks("cross join", taskObs(ctx), func(part, _ int) (func() error, error) {
		var rows []value.Row
		charge := newCharger(ctx, "cross join")
		for _, br := range big.Parts[part] {
			for _, sr := range smallParts[part] {
				nr := make(value.Row, 0, len(c.Out))
				if broadcastRight {
					nr = append(nr, br...)
					nr = append(nr, sr...)
				} else {
					nr = append(nr, sr...)
					nr = append(nr, br...)
				}
				keep := true
				for _, res := range c.Residual {
					v, err := res.Eval(ec, nr)
					if err != nil {
						return nil, err
					}
					if !(v.Kind == value.KindBool && v.B) {
						keep = false
						break
					}
				}
				if keep {
					emitted, err := proj.emit(ec, nr)
					if err != nil {
						return nil, err
					}
					rows = append(rows, emitted)
					if err := charge.tick(); err != nil {
						return nil, err
					}
				}
			}
		}
		return func() error {
			out[part] = rows
			return charge.commit()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rel := &Relation{Schema: c.Out, Parts: out}
	if proj != nil {
		rel.Schema = proj.out
	}
	return rel, nil
}
