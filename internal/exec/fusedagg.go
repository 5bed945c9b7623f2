package exec

import (
	"fmt"
	"slices"

	"relalg/internal/builtins"
	"relalg/internal/linalg"
	"relalg/internal/plan"
	"relalg/internal/value"
)

// Fused aggregation states. SUM(outer_product(x, y)) and
// SUM(matrix_multiply(a, b)) evaluated naively allocate a full result
// matrix per input row; any serious engine (SimSQL's compiled plans
// included) accumulates into a single buffer instead. These states keep the
// generic AggState protocol (Step/Merge/Final) so the distributed two-phase
// machinery is untouched, but the partition-local hot path goes through
// stepLanes: the operands are evaluated once per window, and each group's
// lanes of the window are accumulated in one call.
//
// Outer sums and trans-matmul sums are rank-k updates Σ_r a_r b_rᵀ over the
// window's vectors (or every row of its blocks), run by the register-blocked
// linalg.RankKAddInto; a Gram sum (both operands the same expression)
// computes one triangle. The kernel adds each element's terms in ascending
// lane (and block-row) order, the order of the per-row accumulation it
// replaces, so the result is bit-identical to it on finite operands. A
// window whose operands hold a NaN or ±Inf takes the per-row path instead,
// and the state stays there: register blocking and the mirror may move NaN
// payloads, and a per-row accumulator need not be symmetric any more.

// fusedSpec is the executor's reading of one aggregate call's fusion mark:
// the kind, the two operands evaluated per window (for a trans-matmul sum,
// the argument of trans_matrix and the right factor), and whether they are
// the same expression. A zero spec means the call is not fused.
type fusedSpec struct {
	kind plan.FuseKind
	sym  bool
	ops  [2]plan.Expr
}

// fusedOf reports the fusion the optimizer marked on one aggregate call
// (AggCall.Fuse, AggCall.FuseSym); the executor never derives the decision
// itself. The structural requirements (a two-argument call, a trans_matrix
// left factor, identical operands) are re-verified, so a mismarked plan
// degrades instead of panicking or mirroring an asymmetric sum.
func fusedOf(a plan.AggCall) fusedSpec {
	if a.Spec.Name != "sum" || a.Input == nil {
		return fusedSpec{}
	}
	call, ok := a.Input.(*plan.Call)
	if !ok || len(call.Args) != 2 {
		return fusedSpec{}
	}
	s := fusedSpec{kind: a.Fuse, ops: [2]plan.Expr{call.Args[0], call.Args[1]}}
	switch a.Fuse {
	case plan.FuseOuterSum, plan.FuseMatMulSum:
	case plan.FuseTransMulSum:
		t, ok := call.Args[0].(*plan.Call)
		if !ok || t.Fn.Name != "trans_matrix" || len(t.Args) != 1 {
			return fusedSpec{}
		}
		s.ops[0] = t.Args[0]
	default:
		return fusedSpec{}
	}
	s.sym = a.FuseSym && s.kind != plan.FuseMatMulSum && plan.SameExpr(s.ops[0], s.ops[1])
	return s
}

// fusedSpecs reads every call's mark; nil when fusion is disabled.
func fusedSpecs(aggs []plan.AggCall, fuse bool) []fusedSpec {
	if !fuse {
		return nil
	}
	specs := make([]fusedSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = fusedOf(a)
	}
	return specs
}

// fusedSumState accumulates SUM(outer_product(a, b)) or
// SUM(matrix_multiply(a, b)) without materializing per-row results.
type fusedSumState struct {
	kind plan.FuseKind
	sym  bool
	// perRow is sticky: once a window went per row, the accumulator may be
	// asymmetric in its NaN payloads, so no later window may mirror.
	perRow bool
	acc    *linalg.Matrix
}

// rankKScratch holds the operand rows of one rank-k kernel call. A
// partition's aggregation owns one and reuses it for every group and window.
type rankKScratch struct{ a, b [][]float64 }

// stepLanes accumulates the given lanes of the window's operand columns a
// and b, in ascending lane order. NULL lanes are skipped.
func (s *fusedSumState) stepLanes(a, b *value.Col, lanes []int32, sc *rankKScratch) error {
	if s.kind == plan.FuseMatMulSum || s.perRow {
		return s.stepRows(a, b, lanes)
	}
	rows, err := s.gather(a, b, lanes)
	if err != nil || rows <= 0 {
		return err
	}
	sc.a = slices.Grow(sc.a[:0], rows)
	if !s.sym {
		sc.b = slices.Grow(sc.b[:0], rows)
	}
	for _, i := range lanes {
		va, vb := a.Value(int(i)), b.Value(int(i))
		if va.IsNull() || vb.IsNull() {
			continue
		}
		if s.kind == plan.FuseOuterSum {
			sc.a = append(sc.a, va.Vec.Data)
			if !s.sym {
				sc.b = append(sc.b, vb.Vec.Data)
			}
			continue
		}
		for k := 0; k < va.Mat.Rows; k++ {
			sc.a = append(sc.a, va.Mat.Row(k))
			if !s.sym {
				sc.b = append(sc.b, vb.Mat.Row(k))
			}
		}
	}
	opB := sc.b
	if s.sym {
		opB = sc.a
	}
	if linalg.AllFinite(sc.a) && (s.sym || linalg.AllFinite(opB)) {
		err = linalg.RankKAddInto(s.acc, sc.a, opB)
	} else {
		s.perRow = true
		err = s.stepRows(a, b, lanes)
	}
	// Drop the references so the window's values can be collected.
	clear(sc.a)
	clear(sc.b)
	return err
}

// gather validates the lanes for the rank-k kernel, allocating the
// accumulator on first use, and returns how many operand rows they
// contribute. When a lane's kind or shape does not fit the kernel it routes
// the lanes per row instead and returns -1: the per-row path then reports
// the error at the same row the per-row accumulation always did.
func (s *fusedSumState) gather(a, b *value.Col, lanes []int32) (int, error) {
	rows := 0
	m, n := -1, -1
	if s.acc != nil {
		m, n = s.acc.Rows, s.acc.Cols
	}
	for _, i := range lanes {
		va, vb := a.Value(int(i)), b.Value(int(i))
		if va.IsNull() || vb.IsNull() {
			continue
		}
		var vm, vn, vr int
		fits := false
		switch s.kind {
		case plan.FuseOuterSum:
			if va.Kind == value.KindVector && vb.Kind == value.KindVector {
				vm, vn, vr, fits = va.Vec.Len(), vb.Vec.Len(), 1, true
			}
		case plan.FuseTransMulSum:
			if va.Kind == value.KindMatrix && vb.Kind == value.KindMatrix && va.Mat.Rows == vb.Mat.Rows {
				vm, vn, vr, fits = va.Mat.Cols, vb.Mat.Cols, va.Mat.Rows, true
			}
		}
		if m < 0 && fits {
			m, n = vm, vn
		}
		if !fits || vm != m || vn != n {
			s.perRow = true
			return -1, s.stepRows(a, b, lanes)
		}
		rows += vr
	}
	if m >= 0 && s.acc == nil {
		s.acc = linalg.NewMatrix(m, n)
	}
	return rows, nil
}

// stepRows accumulates the lanes one row at a time: OuterAddInto per vector
// pair, MulMatAddInto per block product (after transposing the left block
// for a trans-matmul sum).
func (s *fusedSumState) stepRows(a, b *value.Col, lanes []int32) error {
	for _, i := range lanes {
		va, vb := a.Value(int(i)), b.Value(int(i))
		if va.IsNull() || vb.IsNull() {
			continue
		}
		switch s.kind {
		case plan.FuseOuterSum:
			if va.Kind != value.KindVector || vb.Kind != value.KindVector {
				return fmt.Errorf("exec: SUM(outer_product) over %s, %s", va.Kind, vb.Kind)
			}
			if s.acc == nil {
				s.acc = linalg.NewMatrix(va.Vec.Len(), vb.Vec.Len())
			}
			if err := va.Vec.OuterAddInto(s.acc, vb.Vec); err != nil {
				return err
			}
		case plan.FuseMatMulSum, plan.FuseTransMulSum:
			if va.Kind != value.KindMatrix || vb.Kind != value.KindMatrix {
				return fmt.Errorf("exec: SUM(matrix_multiply) over %s, %s", va.Kind, vb.Kind)
			}
			l := va.Mat
			if s.kind == plan.FuseTransMulSum {
				l = l.Transpose()
			}
			if s.acc == nil {
				s.acc = linalg.NewMatrix(l.Rows, vb.Mat.Cols)
			}
			if err := l.MulMatAddInto(s.acc, vb.Mat); err != nil {
				return err
			}
		default:
			return fmt.Errorf("exec: stepLanes on unfused state")
		}
	}
	return nil
}

// Step implements builtins.AggState for the (rare) non-fused path: the
// value arriving is an already-computed matrix to add. The accumulator may
// then be anything, so later windows go per row.
func (s *fusedSumState) Step(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if v.Kind != value.KindMatrix {
		return fmt.Errorf("exec: fused SUM over %s", v.Kind)
	}
	s.perRow = true
	if s.acc == nil {
		s.acc = v.Mat.Clone()
		return nil
	}
	return s.acc.AddInPlace(v.Mat)
}

// Merge implements builtins.AggState.
func (s *fusedSumState) Merge(other builtins.AggState) error {
	o, ok := other.(*fusedSumState)
	if !ok {
		return fmt.Errorf("exec: merging fused SUM with %T", other)
	}
	if o.acc == nil {
		return nil
	}
	s.perRow = s.perRow || o.perRow
	if s.acc == nil {
		s.acc = o.acc
		return nil
	}
	return s.acc.AddInPlace(o.acc)
}

// Final implements builtins.AggState.
func (s *fusedSumState) Final() (value.Value, error) {
	if s.acc == nil {
		return value.Null(), nil // SQL: SUM of no rows is NULL
	}
	return value.Matrix(s.acc), nil
}
