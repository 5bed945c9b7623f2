package exec

import (
	"fmt"
	"slices"
	"sort"

	"relalg/internal/builtins"
	"relalg/internal/plan"
	"relalg/internal/spill"
	"relalg/internal/value"
)

// aggGroup is the running state for one group on one partition.
type aggGroup struct {
	keys   []value.Value
	states []builtins.AggState
	// slot is 1 + the group's index in the current window's laneRouter, 0
	// while the window has routed it no fused lanes.
	slot int32
}

// runAgg executes a two-phase distributed aggregation: partition-local
// pre-aggregation, a shuffle of partial states keyed by group, and a final
// merge. The shuffle moves one partial state per (partition, group) instead
// of one row per input tuple — exactly the saving that makes SUM over
// matrices cheap and whose absence makes the tuple-based plans of Figure 4
// aggregation-bound.
func runAgg(ctx *Context, a *plan.Agg) (*Relation, error) {
	in, err := Run(ctx, a.Input)
	if err != nil {
		return nil, err
	}

	// Phase 1: local pre-aggregation (out-of-core when a memory budget is
	// set: new groups beyond the reservation scatter to spill files and are
	// aggregated recursively — see partAgg).
	stopLocal := ctx.Timings.Track("aggregate")
	locals := make([]map[uint64][]*aggGroup, len(in.Parts))
	err = ctx.Cluster.ParallelTasks("aggregate", taskObs(ctx), func(part, attempt int) (func() error, error) {
		pa := &partAgg{ctx: ctx, ec: ctx.EvalCtx(), a: a, part: part, attempt: attempt}
		groups, err := pa.aggregate(in.Parts[part])
		if err != nil {
			return nil, err
		}
		return func() error {
			locals[part] = groups
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	stopLocal()

	// Phase 2: move partial states to their destination partition. When the
	// input is already partitioned on (a subset of) the group keys — or
	// there are no group keys and everything should meet on partition 0 —
	// the move is local.
	stopShuffle := ctx.Timings.Track("aggregate-shuffle")
	p := ctx.Cluster.Partitions()
	dest := func(h uint64) int { return int(h % uint64(p)) }
	skipShuffle := in.Single || groupingAligned(in.HashKeys, a.GroupBy)
	if len(a.GroupBy) == 0 {
		dest = func(uint64) int { return 0 }
		skipShuffle = false
		if in.Single {
			skipShuffle = true
		}
	}

	merged := make([]map[uint64][]*aggGroup, p)
	for i := range merged {
		merged[i] = map[uint64][]*aggGroup{}
	}
	if skipShuffle {
		for part, groups := range locals {
			if groups != nil {
				merged[part] = groups
			}
		}
	} else {
		// Charge the movement: every group whose destination differs from
		// its source crosses the network as (key row + partial values).
		// Hashes iterate in sorted order so partial states merge in the
		// same sequence every run — floating-point accumulation order, and
		// therefore the produced values, stay seed-deterministic.
		for src, groups := range locals {
			for _, h := range sortedHashes(groups) {
				gs := groups[h]
				d := dest(h)
				for _, g := range gs {
					if d != src {
						chargeStateMove(ctx, g)
					}
					// Merge into the destination.
					var tgt *aggGroup
					for _, cand := range merged[d][h] {
						if valsEqual(cand.keys, g.keys) {
							tgt = cand
							break
						}
					}
					if tgt == nil {
						merged[d][h] = append(merged[d][h], g)
						continue
					}
					for i := range tgt.states {
						if err := tgt.states[i].Merge(g.states[i]); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	stopShuffle()

	// Phase 3: finalize. Sorted hash order keeps output row order (and so
	// downstream shuffles and result files) identical across runs.
	stopFinal := ctx.Timings.Track("aggregate")
	out := make([][]value.Row, p)
	// Finalization is retry-safe: Final is a pure read of the merged states,
	// so a re-executed (or speculated) attempt produces the same rows.
	err = ctx.Cluster.ParallelTasks("aggregate", taskObs(ctx), func(part, _ int) (func() error, error) {
		var rows []value.Row
		for _, h := range sortedHashes(merged[part]) {
			for _, g := range merged[part][h] {
				row := make(value.Row, 0, len(a.Out))
				row = append(row, g.keys...)
				for _, st := range g.states {
					v, err := st.Final()
					if err != nil {
						return nil, err
					}
					row = append(row, v)
				}
				rows = append(rows, row)
			}
		}
		return func() error {
			out[part] = rows
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// A grouping with no keys over an empty input still yields one row
	// (SQL: SELECT SUM(x) FROM empty returns a single NULL row).
	if len(a.GroupBy) == 0 && relEmpty(out) {
		row := make(value.Row, 0, len(a.Aggs))
		for _, st := range newStates(a.Aggs, fusedSpecs(a.Aggs, !ctx.DisableAggFusion)) {
			v, err := st.Final()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out[0] = []value.Row{row}
	}

	var produced int64
	for _, pr := range out {
		produced += int64(len(pr))
	}
	if err := ctx.Cluster.ChargeTuples(produced); err != nil {
		return nil, opErr("aggregate", err)
	}
	stopFinal()

	rel := &Relation{Schema: a.Out, Parts: out}
	if len(a.GroupBy) == 0 {
		rel.Single = true
	}
	return rel, nil
}

// sortedHashes returns the keys of a group-hash map in ascending order, the
// iteration order every phase uses so merge and output sequences are
// deterministic.
func sortedHashes(groups map[uint64][]*aggGroup) []uint64 {
	hs := make([]uint64, 0, len(groups))
	for h := range groups {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

func relEmpty(parts [][]value.Row) bool {
	for _, p := range parts {
		if len(p) > 0 {
			return false
		}
	}
	return true
}

// groupingAligned reports whether the input partitioning co-locates rows of
// the same group: the hash keys must be a subset of the group expressions.
func groupingAligned(hashKeys []string, groupBy []plan.Expr) bool {
	if len(hashKeys) == 0 || len(groupBy) == 0 {
		return false
	}
	gset := map[string]bool{}
	for _, g := range groupBy {
		gset[g.String()] = true
	}
	for _, h := range hashKeys {
		if !gset[h] {
			return false
		}
	}
	return true
}

// newStates returns fresh states for the calls; specs (nil when fusion is
// off) selects the fused ones.
func newStates(aggs []plan.AggCall, specs []fusedSpec) []builtins.AggState {
	out := make([]builtins.AggState, len(aggs))
	for i, a := range aggs {
		if specs != nil && specs[i].kind != plan.FuseNone {
			out[i] = &fusedSumState{kind: specs[i].kind, sym: specs[i].sym}
			continue
		}
		out[i] = a.Spec.New()
	}
	return out
}

// aggSpillFanout is how many spill files new-group rows scatter into once
// the group table hits its reservation.
const aggSpillFanout = 16

// partAgg runs one partition's local pre-aggregation, hybrid-hash style:
// under memory pressure the groups already in the table keep aggregating in
// place (their rows never touch disk), while rows of groups that would need
// NEW table entries are scattered raw into spill files by a salted re-hash of
// the group hash, then aggregated recursively. Raw input rows are spilled —
// not partial states — because aggregate states have no serialized form and
// finalized values (avg) cannot be re-merged.
type partAgg struct {
	ctx     *Context
	ec      *plan.EvalCtx
	a       *plan.Agg
	part    int
	attempt int // owning task attempt; keys spill write-fault draws

	specs   []fusedSpec // per call; nil when fusion is off
	route   laneRouter
	scratch rankKScratch
}

// aggregate builds the partition's group map from rows.
func (pa *partAgg) aggregate(rows []value.Row) (map[uint64][]*aggGroup, error) {
	pa.specs = fusedSpecs(pa.a.Aggs, !pa.ctx.DisableAggFusion)
	next := sliceWindows(rows, pa.ctx.window())
	if !pa.ctx.spillEnabled() {
		return pa.build(next, nil, 0)
	}
	res := pa.ctx.Spill.Governor().Reservation("hash aggregate")
	defer res.Release()
	return pa.build(next, res, 0)
}

// windowIter yields the input one window at a time; an empty window means
// end of input.
type windowIter func() ([]value.Row, error)

// sliceWindows windows an in-memory slice without copying it.
func sliceWindows(rows []value.Row, win int) windowIter {
	lo := 0
	return func() ([]value.Row, error) {
		hi := min(lo+win, len(rows))
		w := rows[lo:hi]
		lo = hi
		return w, nil
	}
}

// readerWindows windows a row stream into one reused buffer.
func readerWindows(next func() (value.Row, bool, error), win int) windowIter {
	buf := make([]value.Row, 0, win)
	return func() ([]value.Row, error) {
		buf = buf[:0]
		for len(buf) < win {
			r, ok, err := next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			buf = append(buf, r)
		}
		return buf, nil
	}
}

// stateFootprint estimates the bytes of one group's aggregate states.
func stateFootprint(n int) int64 { return 64 + int64(n)*64 }

// stepCol feeds lane i of column c into state st, using the unboxed stepper
// fast paths when both the column storage and the state support them.
// LabeledScalar lanes fall back to Step so labels reach states that keep them.
func stepCol(st builtins.AggState, c *value.Col, i int) error {
	if !c.Generic {
		switch c.Kind {
		case value.KindDouble:
			if ds, ok := st.(builtins.DoubleStepper); ok {
				return ds.StepDouble(c.F[i])
			}
		case value.KindInt:
			if is, ok := st.(builtins.IntStepper); ok {
				return is.StepInt(c.I[i])
			}
		}
	}
	return st.Step(c.Value(i))
}

// build aggregates the input windows into a group map. Group keys and hashes,
// aggregate arguments and fused operands are evaluated columnar per window,
// then each row is routed in input order; key tuples materialize only when a
// new group enters the table. Fused states step after the routing loop, one
// call per touched group over its lanes of the window. Once res denies the
// table more entries, rows of new groups spill; at maxGraceDepth the bytes
// are forced instead (a single group's rows always re-scatter to the same
// file, so depth alone cannot split skew).
func (pa *partAgg) build(next windowIter, res *spill.Reservation, depth int) (map[uint64][]*aggGroup, error) {
	groups := map[uint64][]*aggGroup{}
	force := depth >= maxGraceDepth
	salt := graceSalt(depth)
	var writers []*spill.Writer
	abortAll := func() {
		for _, w := range writers {
			if w != nil {
				_ = w.Abort() // the original error is the actionable one
			}
		}
	}
	// spillRow scatters a new-group row to its overflow file (all of a
	// group's rows share a hash, hence a file, so each spilled group is
	// complete within its file).
	spillRow := func(h uint64, r value.Row) error {
		return writers[int(mix64(h^salt)%uint64(len(writers)))].Append(r)
	}

	// Plain calls vectorize their argument; fused calls their two operands;
	// COUNT(*) needs neither.
	vecArg := make([]bool, len(pa.a.Aggs))
	var vecInputs, fusedOps []plan.Expr
	var fusedIdx []int
	for i, a := range pa.a.Aggs {
		switch {
		case pa.specs != nil && pa.specs[i].kind != plan.FuseNone:
			fusedIdx = append(fusedIdx, i)
			fusedOps = append(fusedOps, pa.specs[i].ops[:]...)
		case a.Input != nil:
			vecArg[i] = true
			vecInputs = append(vecInputs, a.Input)
		}
	}
	argCols := make([]*value.Col, len(pa.a.Aggs))
	opCols := make([][2]*value.Col, len(pa.a.Aggs))
	refs := colRefs(pa.a.GroupBy, vecInputs, fusedOps)
	var (
		view batchView
		ke   keyEval
	)
	for {
		window, err := next()
		if err != nil {
			abortAll()
			return nil, err
		}
		if len(window) == 0 {
			break
		}
		view.reset(window, 0, len(window), viewWidth(window))
		view.prefetch(refs)
		if err := ke.eval(pa.ec, pa.a.GroupBy, &view); err != nil {
			abortAll()
			return nil, err
		}
		for j, a := range pa.a.Aggs {
			if !vecArg[j] {
				continue
			}
			if argCols[j], err = plan.EvalVec(pa.ec, a.Input, &view, nil); err != nil {
				abortAll()
				return nil, err
			}
		}
		for _, j := range fusedIdx {
			if opCols[j], err = pa.evalOperands(&pa.specs[j], &view); err != nil {
				abortAll()
				return nil, err
			}
		}
		if len(fusedIdx) > 0 {
			pa.route.begin(len(window))
		}
		for i, r := range window {
			h := ke.hashes[i]
			var g *aggGroup
			for _, cand := range groups[h] {
				if keyTupleEqual(ke.cols, i, cand.keys) {
					g = cand
					break
				}
			}
			if g == nil {
				if writers != nil {
					if err := spillRow(h, r); err != nil {
						abortAll()
						return nil, err
					}
					continue
				}
				fp := ke.keyFootprintAt(i) + stateFootprint(len(pa.a.Aggs))
				if res != nil && !force && !res.Grow(fp) {
					// Pressure: open the overflow files; this row is the
					// first one out.
					writers = make([]*spill.Writer, aggSpillFanout)
					for wi := range writers {
						w, err := pa.ctx.Spill.NewWriterAt(fmt.Sprintf("agg-p%d-d%d-%d", pa.part, depth, wi), pa.attempt)
						if err != nil {
							abortAll()
							return nil, err
						}
						writers[wi] = w
					}
					if err := spillRow(h, r); err != nil {
						abortAll()
						return nil, err
					}
					continue
				}
				if res != nil && force {
					res.Force(fp)
				}
				g = &aggGroup{keys: ke.materializeAt(i), states: newStates(pa.a.Aggs, pa.specs)}
				groups[h] = append(groups[h], g)
			}
			if len(fusedIdx) > 0 {
				pa.route.add(g, i)
			}
			for j, st := range g.states {
				var err error
				switch {
				case vecArg[j]:
					err = stepCol(st, argCols[j], i)
				case pa.a.Aggs[j].Input == nil:
					// COUNT(*): any non-null marker.
					if is, ok := st.(builtins.IntStepper); ok {
						err = is.StepInt(1)
					} else {
						err = st.Step(value.Int(1))
					}
				}
				if err != nil {
					abortAll()
					return nil, err
				}
			}
		}
		if len(fusedIdx) > 0 {
			if err := pa.stepFused(fusedIdx, opCols); err != nil {
				abortAll()
				return nil, err
			}
		}
	}
	if writers == nil {
		return groups, nil
	}
	runs := make([]*spill.Run, len(writers))
	for i, w := range writers {
		run, err := w.Finish()
		if err != nil {
			for j := i + 1; j < len(writers); j++ {
				_ = writers[j].Abort()
			}
			removeRunSlice(runs)
			return nil, err
		}
		runs[i] = run
	}
	for i, run := range runs {
		child, err := pa.buildFromRun(run, res, depth+1)
		runs[i] = nil
		if err != nil {
			removeRunSlice(runs)
			return nil, err
		}
		if err := mergeGroupMaps(groups, child); err != nil {
			removeRunSlice(runs)
			return nil, err
		}
	}
	return groups, nil
}

// evalOperands evaluates a fused call's two operands over the window; a Gram
// sum evaluates its one operand once and passes it as both.
func (pa *partAgg) evalOperands(sp *fusedSpec, view *batchView) ([2]*value.Col, error) {
	var cols [2]*value.Col
	var err error
	if cols[0], err = plan.EvalVec(pa.ec, sp.ops[0], view, nil); err != nil {
		return cols, err
	}
	if sp.sym {
		cols[1] = cols[0]
		return cols, nil
	}
	cols[1], err = plan.EvalVec(pa.ec, sp.ops[1], view, nil)
	return cols, err
}

// stepFused runs the window's fused accumulation: every group the routing
// loop touched steps each fused state once, over its lanes in ascending
// order.
func (pa *partAgg) stepFused(fusedIdx []int, opCols [][2]*value.Col) error {
	defer pa.route.reset()
	pa.route.bucket()
	for t, g := range pa.route.touched {
		lanes := pa.route.lanesOf(t)
		for _, j := range fusedIdx {
			if err := g.states[j].(*fusedSumState).stepLanes(opCols[j][0], opCols[j][1], lanes, &pa.scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// laneRouter collects, per window, which lanes each group's fused states
// accumulate, so a group's whole share of the window goes to one kernel call
// however its rows interleave with other groups'.
type laneRouter struct {
	touched []*aggGroup // groups with lanes this window, in first-touch order
	lanes   []int32     // routed lanes in input order
	slotOf  []int32     // per routed lane: its group's index in touched
	order   []int32     // lanes bucketed by group, ascending within a bucket
	start   []int32     // bucket t is order[start[t]:start[t+1]]
	next    []int32     // bucketing cursor
}

// begin readies the router for a window of n rows.
func (r *laneRouter) begin(n int) {
	r.lanes = slices.Grow(r.lanes[:0], n)
	r.slotOf = slices.Grow(r.slotOf[:0], n)
}

// add routes lane to group g.
func (r *laneRouter) add(g *aggGroup, lane int) {
	if g.slot == 0 {
		r.touched = append(r.touched, g)
		g.slot = int32(len(r.touched))
	}
	r.lanes = append(r.lanes, int32(lane))
	r.slotOf = append(r.slotOf, g.slot-1)
}

// bucket groups the routed lanes by group with a stable counting sort. A
// window that touched one group (every global aggregate) keeps its lanes
// where they are.
func (r *laneRouter) bucket() {
	k := len(r.touched)
	if k <= 1 {
		return
	}
	r.start = append(r.start[:0], make([]int32, k+1)...)
	for _, t := range r.slotOf {
		r.start[t+1]++
	}
	for t := 0; t < k; t++ {
		r.start[t+1] += r.start[t]
	}
	r.next = append(r.next[:0], r.start[:k]...)
	r.order = slices.Grow(r.order[:0], len(r.lanes))[:len(r.lanes)]
	for i, lane := range r.lanes {
		t := r.slotOf[i]
		r.order[r.next[t]] = lane
		r.next[t]++
	}
}

// lanesOf returns bucket t after bucket.
func (r *laneRouter) lanesOf(t int) []int32 {
	if len(r.touched) == 1 {
		return r.lanes
	}
	return r.order[r.start[t]:r.start[t+1]]
}

// reset unmarks the window's groups.
func (r *laneRouter) reset() {
	for _, g := range r.touched {
		g.slot = 0
	}
	clear(r.touched)
	r.touched = r.touched[:0]
}

// buildFromRun recursively aggregates one overflow file and removes it.
func (pa *partAgg) buildFromRun(run *spill.Run, res *spill.Reservation, depth int) (map[uint64][]*aggGroup, error) {
	rd, err := run.Reader()
	if err != nil {
		return nil, err
	}
	groups, err := pa.build(readerWindows(rd.Next, pa.ctx.window()), res, depth)
	if err != nil {
		_ = rd.Close() // the build error is the actionable one
		return nil, err
	}
	if err := rd.Close(); err != nil {
		return nil, err
	}
	if err := run.Remove(); err != nil {
		return nil, err
	}
	return groups, nil
}

// mergeGroupMaps folds the child map into dst. Spilled groups are disjoint
// from the parent table by construction (in-table groups keep stepping in
// place), but merge defensively anyway, in sorted hash order so any
// floating-point accumulation stays deterministic.
func mergeGroupMaps(dst, src map[uint64][]*aggGroup) error {
	for _, h := range sortedHashes(src) {
		for _, g := range src[h] {
			var tgt *aggGroup
			for _, cand := range dst[h] {
				if valsEqual(cand.keys, g.keys) {
					tgt = cand
					break
				}
			}
			if tgt == nil {
				dst[h] = append(dst[h], g)
				continue
			}
			for i := range tgt.states {
				if err := tgt.states[i].Merge(g.states[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// chargeStateMove accounts for a partial aggregate state crossing the
// network: the group key plus the current partial values, serialized.
func chargeStateMove(ctx *Context, g *aggGroup) {
	row := make(value.Row, 0, len(g.keys)+len(g.states))
	row = append(row, g.keys...)
	for _, st := range g.states {
		if v, err := st.Final(); err == nil {
			row = append(row, v)
		}
	}
	buf := value.AppendRow(nil, row)
	ctx.Cluster.Stats().TuplesShuffled.Add(1)
	ctx.Cluster.Stats().BytesShuffled.Add(int64(len(buf)))
	ctx.Cluster.NetworkWait(int64(len(buf)))
}
