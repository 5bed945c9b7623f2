package opt

import (
	"fmt"
	"math"
	"sort"

	"relalg/internal/plan"
	"relalg/internal/types"
)

// tupleCPUCost is the modelled fixed cost of pushing one tuple through an
// operator — the per-tuple overhead the paper identifies as the downfall of
// tuple-based linear algebra.
const tupleCPUCost = 4.0

// globalCol is one column of the MultiJoin's concatenated schema.
type globalCol struct {
	rel   int
	local int
	name  string
	t     types.T
}

// conjunct is one WHERE conjunct over the concatenated schema.
type conjunct struct {
	expr plan.Expr
	rels uint
	// Equi-join edge decomposition (valid when isEdge).
	isEdge bool
	e1, e2 plan.Expr // the two sides, over the concatenated schema
	m1, m2 uint      // relation masks of each side
}

// consumer is an expression evaluated above a join subtree. A whole
// consumer is consumed immediately above the MultiJoin (projection output,
// group key, or aggregate input); a sub-consumer is a subtree of another
// consumer over a strict, non-empty subset of that consumer's relations, so
// it can be computed lower in the tree than the expression containing it.
type consumer struct {
	expr     plan.Expr
	rels     uint
	outWidth float64
	inWidth  float64 // summed width of referenced columns
	trivial  bool    // bare column / constant: never eager-computed
	whole    bool
	parents  []int // consumers that contain this one as a sub-consumer
	// subs maps the subtrees of expr that are sub-consumers to their ids;
	// direct lists the columns expr reads outside them.
	subs   map[plan.Expr]int
	direct []int
	// eager marks a consumer computed as soon as a join subtree covers rels.
	eager bool
}

// joinState carries everything planMultiJoin computes up front.
type joinState struct {
	o         *Optimizer
	inputs    []plan.Node // after filter pushdown
	rowsAfter []float64
	gcols     []globalCol
	offsets   []int
	edges     []*conjunct
	residuals []*conjunct
	consumers []*consumer
	byKey     map[string]int // consumer id by plan.Key of its expression
	nrel      int

	// DP memo, indexed by relation-set bitmask.
	rowsMemo  map[uint]float64
	widthMemo map[uint]float64
	outMemo   map[uint]*subsetOut
	cost      map[uint]float64
	split     map[uint][2]uint
}

// subsetOut is the output schema of a join subtree: the global columns it
// passes through and the consumers it hands up computed, both ascending.
type subsetOut struct {
	keep     []int
	computed []int
}

// planMultiJoin orders the join set and returns the join tree plus the
// consumer expressions rewritten over its output schema.
func (o *Optimizer) planMultiJoin(mj *plan.MultiJoin, consumed []plan.Expr) (plan.Node, []plan.Expr, error) {
	st, consumerOf, err := o.newJoinState(mj, consumed)
	if err != nil {
		return nil, nil, err
	}
	full := uint(1)<<st.nrel - 1
	if st.nrel > 1 {
		// DP join enumeration (greedy fallback for very large join sets),
		// costing each sub-consumer as computed on its own relations.
		st.decideEager(full, func(rels uint) uint { return rels })
		if st.nrel <= o.opts.MaxDPRelations {
			st.enumerate(full)
		} else {
			st.greedy(full)
		}
	}
	// The chosen tree may first cover a sub-consumer in a larger subset:
	// check the rows guard there, and derive the subset outputs afresh.
	st.decideEager(full, st.home)
	st.outMemo, st.widthMemo = map[uint]*subsetOut{}, map[uint]float64{}

	node, colmap, computed, err := st.build(full)
	if err != nil {
		return nil, nil, err
	}
	rewritten, err := st.rewriteConsumers(consumed, consumerOf, colmap, computed)
	if err != nil {
		return nil, nil, err
	}
	return node, rewritten, nil
}

// newJoinState lays out the MultiJoin's columns, pushes single-relation
// filters into its inputs, classifies the other conjuncts, and registers the
// consumers; consumerOf[i] is the consumer id of consumed[i].
func (o *Optimizer) newJoinState(mj *plan.MultiJoin, consumed []plan.Expr) (*joinState, []int, error) {
	st := &joinState{
		o:         o,
		nrel:      len(mj.Inputs),
		byKey:     map[string]int{},
		rowsMemo:  map[uint]float64{},
		widthMemo: map[uint]float64{},
		outMemo:   map[uint]*subsetOut{},
		cost:      map[uint]float64{},
		split:     map[uint][2]uint{},
	}

	// Global column layout.
	off := 0
	for rel, in := range mj.Inputs {
		st.offsets = append(st.offsets, off)
		for local, f := range in.Schema() {
			st.gcols = append(st.gcols, globalCol{rel: rel, local: local, name: f.Name, t: f.T})
			off++
		}
	}

	// Optimize inputs and set base cardinalities. The rewrite pass (when
	// enabled) already covered these subtrees on the way in, so this is the
	// join-ordering recursion only.
	for _, in := range mj.Inputs {
		oin, err := o.optimizeNode(in)
		if err != nil {
			return nil, nil, err
		}
		st.inputs = append(st.inputs, oin)
		st.rowsAfter = append(st.rowsAfter, EstimateRows(oin))
	}

	// Classify conjuncts: single-relation filters push down; cross-relation
	// equalities become join edges; the rest are residual predicates.
	for _, c := range mj.Conjuncts {
		cols := plan.ColsUsed(c)
		mask := st.maskOf(cols)
		switch popcount(mask) {
		case 0:
			st.residuals = append(st.residuals, &conjunct{expr: c, rels: mask})
		case 1:
			rel := subsetBits(mask)[0]
			local, err := plan.Remap(c, st.globalToLocal(rel))
			if err != nil {
				return nil, nil, err
			}
			st.inputs[rel] = &plan.Filter{Input: st.inputs[rel], Pred: local}
			st.rowsAfter[rel] = math.Max(1, st.rowsAfter[rel]*st.pushdownSelectivity(rel, c))
		default:
			if e := st.asEdge(c, mask); e != nil {
				st.edges = append(st.edges, e)
			} else {
				st.residuals = append(st.residuals, &conjunct{expr: c, rels: mask})
			}
		}
	}

	// Consumers, deduplicated by structure, then their sub-consumers.
	consumerOf := make([]int, len(consumed))
	for i, e := range consumed {
		consumerOf[i], _ = st.addConsumer(e)
		st.consumers[consumerOf[i]].whole = true
	}
	for i, n := 0, len(st.consumers); i < n; i++ {
		st.addSubs(i)
	}
	return st, consumerOf, nil
}

func (st *joinState) rewriteConsumers(consumed []plan.Expr, consumerOf []int, colmap map[int]int, computed map[int]int) ([]plan.Expr, error) {
	out := make([]plan.Expr, len(consumed))
	for i := range consumed {
		ci := consumerOf[i]
		if pos, ok := computed[ci]; ok {
			out[i] = st.computedCol(ci, pos)
			continue
		}
		e, err := st.exprOver(ci, colmap, computed)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// addConsumer returns the id of the consumer for e, registering it if no
// structurally equal one exists yet.
func (st *joinState) addConsumer(e plan.Expr) (int, bool) {
	key := plan.Key(e)
	if idx, ok := st.byKey[key]; ok {
		return idx, false
	}
	cols := plan.ColsUsed(e)
	var inW float64
	for _, c := range cols {
		inW += st.o.colWidth(st.gcols[c].t)
	}
	_, isCol := e.(*plan.Col)
	idx := len(st.consumers)
	st.consumers = append(st.consumers, &consumer{
		expr:     e,
		rels:     st.maskOf(cols),
		outWidth: st.o.colWidth(e.Type()),
		inWidth:  inW,
		trivial:  isCol || len(cols) == 0,
	})
	st.byKey[key] = idx
	return idx, true
}

// addSubs registers the sub-consumers of consumer i: the maximal non-column
// subtrees of its expression whose relations are a strict, non-empty subset
// of i's. Each is in turn searched for its own sub-consumers.
func (st *joinState) addSubs(i int) {
	c := st.consumers[i]
	c.subs = map[plan.Expr]int{}
	var visit func(e plan.Expr)
	visit = func(e plan.Expr) {
		if col, ok := e.(*plan.Col); ok {
			c.direct = append(c.direct, col.Idx)
			return
		}
		for _, x := range plan.Children(e) {
			if _, isCol := x.(*plan.Col); !isCol {
				if m := st.maskOf(plan.ColsUsed(x)); m != 0 && m != c.rels {
					j, isNew := st.addConsumer(x)
					st.consumers[j].parents = append(st.consumers[j].parents, i)
					c.subs[x] = j
					if isNew {
						st.addSubs(j)
					}
					continue
				}
			}
			visit(x)
		}
	}
	visit(c.expr)
}

// decideEager marks the consumers computed as soon as a join subtree covers
// their relations: non-trivial ones whose output is narrower than their
// input. A sub-consumer must also not run on more rows than the subset where
// its parents would otherwise evaluate it — a selective join above it would
// otherwise make eager evaluation run more often, not less. at maps a
// consumer's relations to the subset it is computed in: before the join
// order is chosen, the relations themselves; after, home in the chosen
// tree, which may be a larger subset with more rows.
func (st *joinState) decideEager(full uint, at func(rels uint) uint) {
	if !st.o.opts.EagerProjection {
		return
	}
	// Parents cover strictly more relations than their sub-consumers, so
	// deciding in order of descending relation count decides every parent
	// before its sub-consumers.
	order := make([]int, len(st.consumers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return popcount(st.consumers[order[a]].rels) > popcount(st.consumers[order[b]].rels)
	})
	evalRows := make([]float64, len(st.consumers))
	for _, i := range order {
		c := st.consumers[i]
		bound := math.Inf(1)
		for _, p := range c.parents {
			bound = math.Min(bound, evalRows[p])
		}
		c.eager = !c.trivial && c.outWidth < c.inWidth && (c.whole || st.rows(at(c.rels)) <= bound)
		switch {
		case c.eager:
			evalRows[i] = st.rows(at(c.rels))
		case c.whole:
			evalRows[i] = st.rows(full)
		default:
			evalRows[i] = bound
		}
	}
}

// home is the subset of the chosen join tree where a consumer over rels is
// computed: the smallest subtree that covers rels.
func (st *joinState) home(rels uint) uint {
	s := uint(1)<<st.nrel - 1
	for {
		sp, ok := st.split[s]
		switch {
		case ok && sp[0]&rels == rels:
			s = sp[0]
		case ok && sp[1]&rels == rels:
			s = sp[1]
		default:
			return s
		}
	}
}

// exprOver rebuilds consumer i over a node's schema: sub-consumers the node
// already computes become references to their columns, and every other
// column reference is remapped through comb.
func (st *joinState) exprOver(i int, comb, computed map[int]int) (plan.Expr, error) {
	c := st.consumers[i]
	return plan.RemapWith(c.expr, comb, func(x plan.Expr) (plan.Expr, error) {
		j, ok := c.subs[x]
		if !ok {
			return nil, nil
		}
		if pos, ok := computed[j]; ok {
			return st.computedCol(j, pos), nil
		}
		return st.exprOver(j, comb, computed)
	})
}

// computedCol references consumer ci's computed value at position pos.
func (st *joinState) computedCol(ci, pos int) *plan.Col {
	return &plan.Col{Idx: pos, Name: fmt.Sprintf("expr%d", ci), T: st.consumers[ci].expr.Type()}
}

func (st *joinState) maskOf(cols []int) uint {
	var m uint
	for _, c := range cols {
		m |= 1 << uint(st.gcols[c].rel)
	}
	return m
}

// globalToLocal maps the global ids of one relation's columns to its local
// schema positions.
func (st *joinState) globalToLocal(rel int) map[int]int {
	m := map[int]int{}
	for gid, gc := range st.gcols {
		if gc.rel == rel {
			m[gid] = gc.local
		}
	}
	return m
}

// pushdownSelectivity estimates the fraction of rows surviving a
// single-relation conjunct.
func (st *joinState) pushdownSelectivity(rel int, c plan.Expr) float64 {
	if be, ok := c.(*plan.Binary); ok && be.Kind == plan.BinCompare && be.Op == "=" {
		var colSide plan.Expr
		if _, isConst := be.R.(*plan.Const); isConst {
			colSide = be.L
		} else if _, isConst := be.L.(*plan.Const); isConst {
			colSide = be.R
		}
		if col, ok := colSide.(*plan.Col); ok {
			// A remap failure here is only an estimation miss; fall back to
			// the default selectivity rather than failing the plan.
			if local, err := plan.Remap(col, st.globalToLocal(rel)); err == nil {
				d := distinctOf(st.inputs[rel], local, st.rowsAfter[rel])
				return 1 / d
			}
		}
	}
	return 1.0 / 3
}

// asEdge decomposes an equality conjunct into a hash-joinable edge when each
// side's columns come from disjoint, non-empty relation sets.
func (st *joinState) asEdge(c plan.Expr, mask uint) *conjunct {
	be, ok := c.(*plan.Binary)
	if !ok || be.Kind != plan.BinCompare || be.Op != "=" {
		return nil
	}
	m1 := st.maskOf(plan.ColsUsed(be.L))
	m2 := st.maskOf(plan.ColsUsed(be.R))
	if m1 == 0 || m2 == 0 || m1&m2 != 0 {
		return nil
	}
	return &conjunct{expr: c, rels: mask, isEdge: true, e1: be.L, e2: be.R, m1: m1, m2: m2}
}

// sideDistinct estimates distinct values of one side of a join edge.
func (st *joinState) sideDistinct(side plan.Expr, mask uint) float64 {
	bits := subsetBits(mask)
	if len(bits) == 1 {
		rel := bits[0]
		// On a remap failure fall through to the coarse product estimate.
		if local, err := plan.Remap(side, st.globalToLocal(rel)); err == nil {
			return distinctOf(st.inputs[rel], local, st.rowsAfter[rel])
		}
	}
	r := 1.0
	for _, rel := range bits {
		r *= st.rowsAfter[rel]
	}
	return math.Max(1, r)
}

// rows estimates the cardinality of the join of subset s.
func (st *joinState) rows(s uint) float64 {
	if r, ok := st.rowsMemo[s]; ok {
		return r
	}
	r := 1.0
	for _, rel := range subsetBits(s) {
		r *= st.rowsAfter[rel]
	}
	for _, e := range st.edges {
		if e.rels&s == e.rels {
			d := math.Max(st.sideDistinct(e.e1, e.m1), st.sideDistinct(e.e2, e.m2))
			r /= math.Max(1, d)
		}
	}
	for _, rc := range st.residuals {
		if rc.rels != 0 && rc.rels&s == rc.rels && popcount(rc.rels) > 1 {
			r /= 3
		}
	}
	r = math.Max(1, r)
	st.rowsMemo[s] = r
	return r
}

// out gives the output of subset s: the columns of s that must remain —
// used by a conjunct not fully applied inside s, or read by a consumer not
// computed inside s — and the consumers s hands up computed. Walking down
// from the whole consumers, a consumer that is eager and covered by s is
// computed in s and hides its columns; any other reads its direct columns
// and passes the walk on to its sub-consumers.
func (st *joinState) out(s uint) *subsetOut {
	if o, ok := st.outMemo[s]; ok {
		return o
	}
	need := map[int]bool{}
	for _, e := range st.edges {
		if e.rels&s == e.rels {
			continue // applied somewhere inside s
		}
		for _, c := range plan.ColsUsed(e.expr) {
			if st.inSubset(c, s) {
				need[c] = true
			}
		}
	}
	for _, rc := range st.residuals {
		if rc.rels&s == rc.rels && popcount(rc.rels) > 1 {
			continue
		}
		for _, c := range plan.ColsUsed(rc.expr) {
			if st.inSubset(c, s) {
				need[c] = true
			}
		}
	}
	computed := map[int]bool{}
	visited := map[int]bool{}
	var walk func(i int)
	walk = func(i int) {
		if visited[i] {
			return
		}
		visited[i] = true
		cons := st.consumers[i]
		if cons.eager && cons.rels&s == cons.rels {
			computed[i] = true
			return
		}
		for _, c := range cons.direct {
			if st.inSubset(c, s) {
				need[c] = true
			}
		}
		for _, j := range cons.subs {
			walk(j)
		}
	}
	for i, cons := range st.consumers {
		if cons.whole {
			walk(i)
		}
	}
	o := &subsetOut{keep: sortedKeys(need), computed: sortedKeys(computed)}
	st.outMemo[s] = o
	return o
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func (st *joinState) inSubset(gid int, s uint) bool {
	return s&(1<<uint(st.gcols[gid].rel)) != 0
}

// width estimates the byte width of one output row of subset s.
func (st *joinState) width(s uint) float64 {
	if w, ok := st.widthMemo[s]; ok {
		return w
	}
	w := 0.0
	o := st.out(s)
	for _, c := range o.keep {
		w += st.o.colWidth(st.gcols[c].t)
	}
	for _, i := range o.computed {
		w += st.consumers[i].outWidth
	}
	w += 8 // per-row overhead
	st.widthMemo[s] = w
	return w
}

// enumerate runs DP over all subsets (cross products allowed).
func (st *joinState) enumerate(full uint) {
	for rel := 0; rel < st.nrel; rel++ {
		s := uint(1) << uint(rel)
		st.cost[s] = st.rows(s) * (st.width(s) + tupleCPUCost)
	}
	for size := 2; size <= st.nrel; size++ {
		for s := uint(1); s <= full; s++ {
			if popcount(s) != size {
				continue
			}
			best := math.Inf(1)
			var bestSplit [2]uint
			// Enumerate proper non-empty splits; (l, r) and (r, l) are
			// both visited, which also picks build/probe sides.
			for l := (s - 1) & s; l != 0; l = (l - 1) & s {
				r := s &^ l
				cl, okl := st.cost[l]
				cr, okr := st.cost[r]
				if !okl || !okr {
					continue
				}
				c := cl + cr + st.joinCost(s, l, r)
				if c < best {
					best = c
					bestSplit = [2]uint{l, r}
				}
			}
			st.cost[s] = best
			st.split[s] = bestSplit
		}
	}
}

// joinCost is the incremental cost of producing subset s from l and r:
// materializing the output plus shuffling both inputs.
func (st *joinState) joinCost(s, l, r uint) float64 {
	out := st.rows(s) * (st.width(s) + tupleCPUCost)
	shuffle := st.rows(l)*st.width(l) + st.rows(r)*st.width(r)
	return out + shuffle
}

// greedy repeatedly merges the cheapest pair (fallback beyond the DP bound).
func (st *joinState) greedy(full uint) {
	var sets []uint
	for rel := 0; rel < st.nrel; rel++ {
		s := uint(1) << uint(rel)
		sets = append(sets, s)
		st.cost[s] = st.rows(s) * (st.width(s) + tupleCPUCost)
	}
	for len(sets) > 1 {
		best := math.Inf(1)
		bi, bj := 0, 1
		for i := 0; i < len(sets); i++ {
			for j := i + 1; j < len(sets); j++ {
				u := sets[i] | sets[j]
				c := st.cost[sets[i]] + st.cost[sets[j]] + st.joinCost(u, sets[i], sets[j])
				if c < best {
					best, bi, bj = c, i, j
				}
			}
		}
		u := sets[bi] | sets[bj]
		st.cost[u] = best
		st.split[u] = [2]uint{sets[bi], sets[bj]}
		ns := sets[:0]
		for k, s := range sets {
			if k != bi && k != bj {
				ns = append(ns, s)
			}
		}
		sets = append(ns, u)
	}
	_ = full
}

// build constructs the plan for subset s, returning the node, the mapping
// from kept global column ids to output positions, and the mapping from
// computed consumer ids to output positions.
func (st *joinState) build(s uint) (plan.Node, map[int]int, map[int]int, error) {
	if popcount(s) == 1 {
		return st.buildLeaf(subsetBits(s)[0], s)
	}
	sp := st.split[s]
	ln, lmap, lcomp, err := st.build(sp[0])
	if err != nil {
		return nil, nil, nil, err
	}
	rn, rmap, rcomp, err := st.build(sp[1])
	if err != nil {
		return nil, nil, nil, err
	}
	lwidth := len(ln.Schema())

	// Map global ids and computed consumers into the concatenated schema.
	comb := map[int]int{}
	for g, p := range lmap {
		comb[g] = p
	}
	for g, p := range rmap {
		comb[g] = p + lwidth
	}
	childComputed := map[int]int{}
	for ci, p := range lcomp {
		childComputed[ci] = p
	}
	for ci, p := range rcomp {
		childComputed[ci] = p + lwidth
	}

	// Join keys: edges fully applicable at exactly this node.
	var lkeys, rkeys []plan.Expr
	var residual []plan.Expr
	for _, e := range st.edges {
		if e.rels&s != e.rels || e.rels&sp[0] == e.rels || e.rels&sp[1] == e.rels {
			continue
		}
		switch {
		case e.isEdge && e.m1&sp[0] == e.m1 && e.m2&sp[1] == e.m2:
			lk, err := plan.Remap(e.e1, lmap)
			if err != nil {
				return nil, nil, nil, err
			}
			rk, err := plan.Remap(e.e2, rmap)
			if err != nil {
				return nil, nil, nil, err
			}
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		case e.isEdge && e.m2&sp[0] == e.m2 && e.m1&sp[1] == e.m1:
			lk, err := plan.Remap(e.e2, lmap)
			if err != nil {
				return nil, nil, nil, err
			}
			rk, err := plan.Remap(e.e1, rmap)
			if err != nil {
				return nil, nil, nil, err
			}
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		default:
			res, err := plan.Remap(e.expr, comb)
			if err != nil {
				return nil, nil, nil, err
			}
			residual = append(residual, res)
		}
	}
	for _, rc := range st.residuals {
		if rc.rels&s != rc.rels || (rc.rels != 0 && (rc.rels&sp[0] == rc.rels || rc.rels&sp[1] == rc.rels)) {
			continue
		}
		res, err := plan.Remap(rc.expr, comb)
		if err != nil {
			return nil, nil, nil, err
		}
		residual = append(residual, res)
	}

	// Concatenated join schema.
	concat := make(plan.Schema, 0, lwidth+len(rn.Schema()))
	concat = append(concat, ln.Schema()...)
	concat = append(concat, rn.Schema()...)

	var joined plan.Node
	if len(lkeys) > 0 {
		joined = &plan.Join{L: ln, R: rn, LKeys: lkeys, RKeys: rkeys, Residual: residual, Out: concat}
	} else {
		joined = &plan.Cross{L: ln, R: rn, Residual: residual, Out: concat}
	}

	return st.projectSubset(s, joined, comb, childComputed)
}

// buildLeaf wraps one input with pruning/eager projection as needed.
func (st *joinState) buildLeaf(rel int, s uint) (plan.Node, map[int]int, map[int]int, error) {
	node := st.inputs[rel]
	local := st.globalToLocal(rel)
	// comb maps global ids straight to the leaf's schema positions.
	return st.projectSubset(s, node, local, map[int]int{})
}

// projectSubset adds the projection for subset s over node: it keeps the
// subset's pass-through columns, carries forward already-computed consumers,
// and computes the newly covered ones. comb maps global column ids to node
// schema positions; childComputed maps consumer ids to node schema positions.
func (st *joinState) projectSubset(s uint, node plan.Node, comb map[int]int, childComputed map[int]int) (plan.Node, map[int]int, map[int]int, error) {
	so := st.out(s)

	var exprs []plan.Expr
	var out plan.Schema
	colmap := map[int]int{}
	computed := map[int]int{}

	for _, g := range so.keep {
		pos, ok := comb[g]
		if !ok {
			return nil, nil, nil, fmt.Errorf("opt: keep column %d not present in subset output", g)
		}
		gc := st.gcols[g]
		exprs = append(exprs, &plan.Col{Idx: pos, Name: gc.name, T: gc.t})
		colmap[g] = len(out)
		out = append(out, plan.Field{Name: gc.name, T: gc.t})
	}
	for _, ci := range so.computed {
		if pos, ok := childComputed[ci]; ok {
			exprs = append(exprs, st.computedCol(ci, pos))
		} else {
			e, err := st.exprOver(ci, comb, childComputed)
			if err != nil {
				return nil, nil, nil, err
			}
			exprs = append(exprs, e)
		}
		computed[ci] = len(out)
		out = append(out, plan.Field{Name: fmt.Sprintf("expr%d", ci), T: st.consumers[ci].expr.Type()})
	}

	// Skip the projection when it is a pure identity of the node schema.
	if len(exprs) == len(node.Schema()) {
		identity := true
		for i, e := range exprs {
			c, ok := e.(*plan.Col)
			if !ok || c.Idx != i {
				identity = false
				break
			}
		}
		if identity {
			return node, colmap, computed, nil
		}
	}
	return &plan.Project{Input: node, Exprs: exprs, Out: out}, colmap, computed, nil
}

func popcount(s uint) int {
	n := 0
	for ; s != 0; s &= s - 1 {
		n++
	}
	return n
}
