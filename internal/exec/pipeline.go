package exec

import (
	"relalg/internal/plan"
	"relalg/internal/value"
)

// This file implements the fused scan→filter→project pipeline: when a plan
// subtree has the shape Project?(Filter*(Scan)), the executor runs it as one
// per-partition pass instead of materializing a relation per operator. Rows
// stream from the stored partition through the predicates into the
// projection, so filtered-out rows cost nothing downstream and projected rows
// are carved out of a chunked arena instead of one allocation each. This
// extends the join-projection fusion in runProject to the leaf chains the
// optimizer pushes filters into.

// matchPipeline returns the fused chain rooted at n, or nil when fusion is
// disabled or n doesn't decompose.
func matchPipeline(ctx *Context, n plan.Node) *plan.Pipeline {
	if ctx.DisablePipelineFusion {
		return nil
	}
	return plan.MatchPipeline(n)
}

// rowArena hands out value.Row storage carved from one allocation per emit
// loop. One arena serves one partition goroutine, so no locking. Rows remain
// valid forever (the blocks are never reused) — the arena only batches what
// would otherwise be one allocation per row.
type rowArena struct {
	buf []value.Value
}

// reserve makes room for n more values in a single allocation. Callers size
// it to the rows they are about to emit, so short outputs hold no oversized
// block.
func (a *rowArena) reserve(n int) {
	if len(a.buf) < n {
		a.buf = make([]value.Value, n)
	}
}

// alloc returns a zeroed row of n values with capacity clipped to n, so an
// append by a downstream consumer can never bleed into a neighbouring row.
func (a *rowArena) alloc(n int) value.Row {
	if n == 0 {
		return value.Row{}
	}
	a.reserve(n)
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return value.Row(r)
}

// runPipeline executes a fused Project?(Filter*(Scan)) chain in one pass per
// partition. Placement metadata follows the same rules as the unfused
// operators: a filter-only chain keeps the scan's advertised hash keys (rows
// only disappear, placement is untouched), a projecting chain drops them
// (rewriting keys through the projection is the same conservative gap as
// runProject). Only the rows that leave the pipeline are charged to the
// cluster budget — the fused chain genuinely never materializes the
// intermediates the stage-at-a-time executor would have paid for.
func runPipeline(ctx *Context, sp *plan.Pipeline) (*Relation, error) {
	return runPipelineLimited(ctx, sp, -1)
}

// runPipelineLimited is runPipeline with an optional per-partition row cap
// (limit < 0 means none): runLimit pushes its N down so each partition stops
// producing — and charging — at N rows, truncating inside a window via the
// selection vector.
func runPipelineLimited(ctx *Context, sp *plan.Pipeline, limit int) (*Relation, error) {
	defer ctx.Timings.Track("pipeline")()
	var (
		parts [][]value.Row
		keys  []string
		err   error
	)
	// A paged table source streams the scan through the buffer pool instead
	// of materializing partitions; see paged.go.
	pt := pagedScan(ctx, sp.Scan)
	if pt == nil {
		parts, keys, err = scanParts(ctx, sp.Scan)
		if err != nil {
			return nil, err
		}
	} else {
		keys = scanHashKeys(sp.Scan)
	}
	out := make([][]value.Row, ctx.Cluster.Partitions())
	ec := ctx.EvalCtx()
	filterRefs, projRefs := colRefs(sp.Filters), colRefs(sp.Exprs)
	err = ctx.Cluster.ParallelTasks("pipeline", taskObs(ctx), func(part, _ int) (func() error, error) {
		var rows []value.Row
		var err error
		if pt != nil {
			rows, err = pagedPipelinePart(ec, sp, pt, part, limit)
		} else {
			rows, err = pipelinePart(ctx, ec, sp, filterRefs, projRefs, parts[part], limit)
		}
		if err != nil {
			return nil, err
		}
		return func() error {
			out[part] = rows
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rel := &Relation{Schema: sp.Out, Parts: out}
	if sp.Exprs == nil {
		rel.HashKeys = keys
	}
	if err := ctx.Cluster.ChargeTuples(int64(rel.NumRows())); err != nil {
		return nil, opErr("pipeline", err)
	}
	return rel, nil
}

// pipelinePart runs the fused filter→project chain over one partition in
// windows. Only the filter columns (filterRefs) are gathered for the whole
// window; the projection, if any, runs over the rows that survive. limit < 0
// means unbounded; otherwise production stops after limit rows.
func pipelinePart(ctx *Context, ec *plan.EvalCtx, sp *plan.Pipeline, filterRefs, projRefs []int, rows []value.Row, limit int) ([]value.Row, error) {
	var (
		out   []value.Row
		sc    windowScratch
		arena rowArena
		sbuf  []int32
	)
	if sp.Exprs != nil {
		sc.proj = newProjector(sp.Exprs, projRefs)
	}
	width := viewWidth(rows)
	win := ctx.window()
	for lo := 0; lo < len(rows); lo += win {
		if limit >= 0 && len(out) >= limit {
			break
		}
		hi := min(lo+win, len(rows))
		sc.view.reset(rows, lo, hi, width)
		sc.view.prefetch(filterRefs)
		n := hi - lo
		sel, err := filterLanes(ec, sp.Filters, &sc.view, n, &sbuf)
		if err != nil {
			return nil, err
		}
		if sel != nil && len(sel) == 0 {
			continue
		}
		if limit >= 0 {
			sel = capLanes(sel, n, limit-len(out))
		}
		if sp.Exprs != nil {
			if out, err = sc.proj.project(ec, &sc.view, sel, &arena, out); err != nil {
				return nil, err
			}
			continue
		}
		if sel == nil {
			out = append(out, rows[lo:hi]...)
			continue
		}
		for _, i := range sel {
			out = append(out, rows[lo+int(i)])
		}
	}
	return out, nil
}
