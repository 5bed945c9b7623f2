package exec

import (
	"fmt"
	"slices"
	"sort"

	"relalg/internal/plan"
	"relalg/internal/value"
)

// This file is the executor's window machinery. Filter, project, the fused
// pipeline, hash-join build/probe (including the grace spill legs), and
// partition-local aggregation all process their input in windows of
// Context.BatchSize rows as per-column arrays with selection vectors instead
// of dispatching the expression tree per row. Rows keep their order, key
// hashing replicates value.Hash/hashVals exactly, and per-row spill
// footprints come from the same SizeBytes quantities, so output rows, tuple
// charges, spill decisions and spill-file contents do not depend on the
// window size. Rows materialize late: predicates run over the whole window,
// projections only over the rows that survive them.

// batchView adapts a window rows[lo:hi] to plan.BatchSource, gathering each
// column on first use (or up front, via prefetch) and caching it for the rest
// of the window.
type batchView struct {
	rows   []value.Row
	lo, hi int
	cols   []viewCol
	// prefetch scratch
	pidx []int
	pcol []*value.Col
}

// viewCol is one cached column of a window.
type viewCol struct {
	col  value.Col
	have bool
}

// reset points the view at rows[lo:hi] with the given column count.
func (v *batchView) reset(rows []value.Row, lo, hi, width int) {
	v.rows, v.lo, v.hi = rows, lo, hi
	if cap(v.cols) < width {
		v.cols = make([]viewCol, width)
	}
	v.cols = v.cols[:width]
	for i := range v.cols {
		v.cols[i].have = false
	}
}

// BatchLen implements plan.BatchSource.
func (v *batchView) BatchLen() int { return v.hi - v.lo }

// BatchCol implements plan.BatchSource.
func (v *batchView) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= len(v.cols) {
		return nil, fmt.Errorf("exec: column index %d out of range for row of %d", idx, len(v.cols))
	}
	vc := &v.cols[idx]
	if !vc.have {
		vc.col.Gather(v.rows, v.lo, v.hi, idx)
		vc.have = true
	}
	return &vc.col, nil
}

// BatchRow implements plan.BatchSource.
func (v *batchView) BatchRow(i int) value.Row { return v.rows[v.lo+i] }

// colRefs returns the distinct column indexes the expression lists
// reference, ascending. Operators compute it once and share it, read-only,
// across their partition tasks.
func colRefs(lists ...[]plan.Expr) []int {
	var idxs []int
	for _, list := range lists {
		for _, e := range list {
			if e == nil {
				continue
			}
			e.Walk(func(x plan.Expr) {
				if c, ok := x.(*plan.Col); ok {
					idxs = append(idxs, c.Idx)
				}
			})
		}
	}
	sort.Ints(idxs)
	return slices.Compact(idxs)
}

// prefetch gathers the columns idxs (from colRefs) in a single pass over the
// window (value.GatherMulti) instead of one lazy pass per column; columns
// already gathered and out-of-range indexes are skipped.
func (v *batchView) prefetch(idxs []int) {
	if cap(v.pidx) < len(idxs) {
		v.pidx, v.pcol = make([]int, 0, len(idxs)), make([]*value.Col, 0, len(idxs))
	}
	v.pidx, v.pcol = v.pidx[:0], v.pcol[:0]
	for _, idx := range idxs {
		if idx >= 0 && idx < len(v.cols) && !v.cols[idx].have {
			v.pidx = append(v.pidx, idx)
			v.pcol = append(v.pcol, &v.cols[idx].col)
		}
	}
	if len(v.pidx) == 0 {
		return
	}
	value.GatherMulti(v.rows, v.lo, v.hi, v.pidx, v.pcol)
	for _, idx := range v.pidx {
		v.cols[idx].have = true
	}
}

// viewWidth is the column count of a window (rows of one relation all share
// a width).
func viewWidth(rows []value.Row) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}

// noLanes is the empty selection: distinct from nil, which means every lane
// is live.
var noLanes = []int32{}

// filterSel returns the live lanes where pred evaluated to BOOLEAN true,
// applying SQL's keep test (anything else drops). sel nil means all n lanes
// were live on entry; a nil result then means they all survived, so a dense
// window needs no selection vector at all. Otherwise the result is written
// into dst (grown as needed); when dst aliases sel the in-place compaction is
// safe because both cursors move in ascending order and the write index
// never passes the read index.
func filterSel(c *value.Col, n int, sel, dst []int32) []int32 {
	if !c.Generic {
		if c.Kind != value.KindBool {
			return noLanes // homogeneous non-boolean predicate keeps nothing
		}
		b := c.B
		if sel != nil {
			dst = dst[:0]
			for _, i := range sel {
				if b[i] {
					dst = append(dst, i)
				}
			}
			return dst
		}
		i := 0
		for i < n && b[i] {
			i++
		}
		if i == n {
			return nil
		}
		dst = denseSel(dst, i, n)
		for i++; i < n; i++ {
			if b[i] {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	keep := func(i int) bool {
		v := c.Any[i]
		return v.Kind == value.KindBool && v.B
	}
	if sel != nil {
		dst = dst[:0]
		for _, i := range sel {
			if keep(int(i)) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	i := 0
	for i < n && keep(i) {
		i++
	}
	if i == n {
		return nil
	}
	dst = denseSel(dst, i, n)
	for i++; i < n; i++ {
		if keep(i) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// denseSel returns the selection [0,k) in buf, with room for n lanes.
func denseSel(buf []int32, k, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, 0, n)
	}
	buf = buf[:k]
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// filterLanes threads preds through a selection vector over the n lanes of
// src and returns the lanes where every predicate evaluated to BOOLEAN true.
// nil means every lane is live; otherwise the vector lives in *buf, which is
// reused across windows.
func filterLanes(ec *plan.EvalCtx, preds []plan.Expr, src plan.BatchSource, n int, buf *[]int32) ([]int32, error) {
	var sel []int32
	for _, pred := range preds {
		col, err := plan.EvalVec(ec, pred, src, sel)
		if err != nil {
			return nil, err
		}
		if sel = filterSel(col, n, sel, *buf); sel == nil {
			continue // still dense
		}
		if cap(sel) > 0 {
			*buf = sel
		}
		if len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

// capLanes truncates the live lanes of an n-lane window to at most k, so a
// pushed-down LIMIT never materializes (or charges) the discarded tail.
func capLanes(sel []int32, n, k int) []int32 {
	if sel == nil {
		if n <= k {
			return nil
		}
		return denseSel(nil, k, k)
	}
	if len(sel) > k {
		return sel[:k]
	}
	return sel
}

// forEachLane calls f for every live lane (all n when sel is nil).
func forEachLane(n int, sel []int32, f func(i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	for _, i := range sel {
		f(int(i))
	}
}

// emitRows appends one arena row per live lane, column j taken from cols[j].
// The arena is sized to exactly the live output first, so a window that
// keeps one row allocates one row.
func emitRows(out []value.Row, arena *rowArena, cols []*value.Col, n int, sel []int32) []value.Row {
	live := n
	if sel != nil {
		live = len(sel)
	}
	w := len(cols)
	arena.reserve(live * w)
	if need := len(out) + live; need > cap(out) {
		grown := make([]value.Row, len(out), max(need, 2*cap(out)))
		copy(grown, out)
		out = grown
	}
	forEachLane(n, sel, func(i int) {
		nr := arena.alloc(w)
		for j, c := range cols {
			nr[j] = c.Value(i)
		}
		out = append(out, nr)
	})
	return out
}

// projector evaluates a projection over a window and materializes the
// result rows. When a selection vector says only some rows survived, those
// rows are compacted first, so the projection's columns (VECTOR and MATRIX
// cells included) are gathered and computed for surviving rows only. One
// projector serves one partition task.
type projector struct {
	exprs []plan.Expr
	refs  []int // colRefs(exprs), shared by the operator's tasks
	view  batchView
	live  []value.Row
	cols  []*value.Col
}

func newProjector(exprs []plan.Expr, refs []int) projector {
	return projector{exprs: exprs, refs: refs, cols: make([]*value.Col, len(exprs))}
}

// windowScratch is one partition task's window view and projector, held in
// a single allocation.
type windowScratch struct {
	view batchView
	proj projector
}

// project appends the projection of the live lanes of view (all of them
// when sel is nil) to out.
func (p *projector) project(ec *plan.EvalCtx, view *batchView, sel []int32, arena *rowArena, out []value.Row) ([]value.Row, error) {
	src := view
	if sel != nil {
		p.live = p.live[:0]
		for _, i := range sel {
			p.live = append(p.live, view.rows[view.lo+int(i)])
		}
		p.view.reset(p.live, 0, len(p.live), len(view.cols))
		src = &p.view
	}
	src.prefetch(p.refs)
	for j, e := range p.exprs {
		c, err := plan.EvalVec(ec, e, src, nil)
		if err != nil {
			return nil, err
		}
		p.cols[j] = c
	}
	return emitRows(out, arena, p.cols, src.BatchLen(), nil), nil
}

// keyEval is the reusable vectorized key-evaluation state for one window:
// the key columns and the combined key-tuple hashes, matching hashVals of
// evalKeys lane for lane.
type keyEval struct {
	cols    []*value.Col
	hashes  []uint64
	scratch []uint64
}

// eval computes the key columns and combined hashes for every lane of view.
func (k *keyEval) eval(ec *plan.EvalCtx, keys []plan.Expr, view *batchView) error {
	n := view.BatchLen()
	if cap(k.cols) < len(keys) {
		k.cols = make([]*value.Col, len(keys))
	}
	k.cols = k.cols[:len(keys)]
	if cap(k.hashes) < n {
		k.hashes = make([]uint64, n)
		k.scratch = make([]uint64, n)
	}
	k.hashes = k.hashes[:n]
	k.scratch = k.scratch[:n]
	for i, e := range keys {
		c, err := plan.EvalVec(ec, e, view, nil)
		if err != nil {
			return err
		}
		k.cols[i] = c
	}
	for i := range k.hashes {
		k.hashes[i] = value.KeyHashInit
	}
	for _, c := range k.cols {
		c.HashesInto(k.scratch, nil)
		value.CombineKeyHashes(k.hashes, k.scratch, nil)
	}
	return nil
}

// keyFootprintAt is the governed cost of the key tuple at lane i (slice
// overhead plus each value's SizeBytes), computed from the columns without
// materializing the values.
func (k *keyEval) keyFootprintAt(i int) int64 {
	n := int64(32)
	for _, c := range k.cols {
		n += int64(c.SizeBytesAt(i))
	}
	return n
}

// materializeAt builds the key tuple at lane i as a value slice (used only
// when a row actually enters a hash table, so the key allocation is paid
// once per stored entry instead of once per input row).
func (k *keyEval) materializeAt(i int) []value.Value {
	kv := make([]value.Value, len(k.cols))
	for j, c := range k.cols {
		kv[j] = c.Value(i)
	}
	return kv
}

// colKeyEqual compares one key column lane against a materialized key value
// with valsEqual's semantics: numeric pairs compare by their double
// representation, everything else by deep equality.
func colKeyEqual(c *value.Col, i int, w value.Value) bool {
	if !c.Generic {
		switch c.Kind {
		case value.KindInt:
			if !w.IsNumeric() {
				return false
			}
			y, _ := w.AsDouble()
			return float64(c.I[i]) == y
		case value.KindDouble, value.KindLabeledScalar:
			if !w.IsNumeric() {
				return false
			}
			y, _ := w.AsDouble()
			return c.F[i] == y
		case value.KindString:
			return w.Kind == value.KindString && c.S[i] == w.S
		case value.KindBool:
			return w.Kind == value.KindBool && c.B[i] == w.B
		}
	}
	v := c.Value(i)
	if v.IsNumeric() && w.IsNumeric() {
		x, _ := v.AsDouble()
		y, _ := w.AsDouble()
		return x == y
	}
	return v.Equal(w)
}

// keyTupleEqual compares the key columns at lane i against a materialized
// key tuple.
func keyTupleEqual(cols []*value.Col, i int, keys []value.Value) bool {
	for j, c := range cols {
		if !colKeyEqual(c, i, keys[j]) {
			return false
		}
	}
	return true
}

// pairSource is a plan.BatchSource over the matched pairs of one probe
// window: column idx < split gathers from the left-side rows, the rest from
// the right side, so the vectorized residual and projection never pay for
// materializing concatenated rows. The scalar fallback (BatchRow) builds the
// concat rows lazily, costing what the eager copy cost only when a generic
// expression actually needs whole rows.
type pairSource struct {
	left, right []value.Row
	split, w    int
	cols        []value.Col
	have        []bool
	buf         []value.Value // flat backing for lazily-built concat rows
	concat      []value.Row
}

func (ps *pairSource) reset(left, right []value.Row, split, w int) {
	ps.left, ps.right = left, right
	ps.split, ps.w = split, w
	if cap(ps.cols) < w {
		ps.cols = make([]value.Col, w)
		ps.have = make([]bool, w)
	}
	ps.cols = ps.cols[:w]
	ps.have = ps.have[:w]
	for i := range ps.have {
		ps.have[i] = false
	}
	ps.concat = ps.concat[:0]
}

func (ps *pairSource) BatchLen() int { return len(ps.left) }

func (ps *pairSource) BatchCol(idx int) (*value.Col, error) {
	if idx < 0 || idx >= ps.w {
		return nil, fmt.Errorf("exec: batch column %d out of range (width %d)", idx, ps.w)
	}
	c := &ps.cols[idx]
	if !ps.have[idx] {
		if idx < ps.split {
			c.Gather(ps.left, 0, len(ps.left), idx)
		} else {
			c.Gather(ps.right, 0, len(ps.right), idx-ps.split)
		}
		ps.have[idx] = true
	}
	return c, nil
}

func (ps *pairSource) BatchRow(i int) value.Row {
	if len(ps.concat) == 0 {
		n := len(ps.left)
		if cap(ps.buf) < n*ps.w {
			ps.buf = make([]value.Value, n*ps.w)
		}
		for k := 0; k < n; k++ {
			nr := value.Row(ps.buf[k*ps.w : k*ps.w : (k+1)*ps.w])
			nr = append(nr, ps.left[k]...)
			nr = append(nr, ps.right[k]...)
			ps.concat = append(ps.concat, nr)
		}
	}
	return ps.concat[i]
}

// batchEmitter vectorizes the match-emission tail of the probe: residual
// predicates and the fused projection evaluate columnar over the window's
// matched build/probe pairs, and only surviving matches materialize. Each
// emitted row ticks the join's charger once.
type batchEmitter struct {
	pj    *partJoin
	pair  pairSource
	view  batchView
	sbuf  []int32
	cols  []*value.Col
	arena rowArena // output rows
}

func newBatchEmitter(pj *partJoin) *batchEmitter {
	em := &batchEmitter{pj: pj}
	if pj.proj != nil {
		em.cols = make([]*value.Col, len(pj.proj.exprs))
	}
	return em
}

// flush emits the window's matches; bRows and pRows are parallel pair sides.
func (em *batchEmitter) flush(bRows, pRows []value.Row) error {
	n := len(bRows)
	if n == 0 {
		return nil
	}
	pj := em.pj
	left, right := bRows, pRows
	if !pj.buildLeft {
		left, right = pRows, bRows
	}
	w := len(left[0]) + len(right[0])
	if pj.proj == nil {
		return em.flushConcat(left, right, w)
	}
	em.pair.reset(left, right, len(left[0]), w)
	sel, err := filterLanes(pj.ec, pj.j.Residual, &em.pair, n, &em.sbuf)
	if err != nil || (sel != nil && len(sel) == 0) {
		return err
	}
	for j, e := range pj.proj.exprs {
		c, err := plan.EvalVec(pj.ec, e, &em.pair, sel)
		if err != nil {
			return err
		}
		em.cols[j] = c
	}
	before := len(pj.rows)
	pj.rows = emitRows(pj.rows, &em.arena, em.cols, n, sel)
	return pj.charge.tickN(len(pj.rows) - before)
}

// flushConcat is the no-projection leg: the concatenated rows are the output
// rows themselves, so they must materialize (from the arena); the residual
// then runs vectorized over a view of them.
func (em *batchEmitter) flushConcat(left, right []value.Row, w int) error {
	pj := em.pj
	n := len(left)
	concat := make([]value.Row, 0, n)
	em.arena.reserve(n * w)
	for i := 0; i < n; i++ {
		nr := em.arena.alloc(w)[:0]
		nr = append(nr, left[i]...)
		nr = append(nr, right[i]...)
		concat = append(concat, nr)
	}
	em.view.reset(concat, 0, n, w)
	sel, err := filterLanes(pj.ec, pj.j.Residual, &em.view, n, &em.sbuf)
	if err != nil {
		return err
	}
	before := len(pj.rows)
	forEachLane(n, sel, func(i int) { pj.rows = append(pj.rows, concat[i]) })
	return pj.charge.tickN(len(pj.rows) - before)
}
