package exec

import (
	"fmt"

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
// stepFused, skipping the intermediate allocation entirely.

// fusedKind identifies which fusion applies to an aggregate call.
type fusedKind uint8

const (
	fusedNone fusedKind = iota
	fusedOuterSum
	fusedMatMulSum
)

// fusedOf reports the fusion the optimizer marked on one aggregate call
// (AggCall.Fuse); the executor never derives the decision itself. The
// structural requirements (a two-argument call) are re-verified, so a
// mismarked plan degrades to unfused instead of panicking in newStates.
func fusedOf(a plan.AggCall) fusedKind {
	if a.Spec.Name != "sum" || a.Input == nil {
		return fusedNone
	}
	call, ok := a.Input.(*plan.Call)
	if !ok || len(call.Args) != 2 {
		return fusedNone
	}
	switch a.Fuse {
	case plan.FuseOuterSum:
		return fusedOuterSum
	case plan.FuseMatMulSum:
		return fusedMatMulSum
	}
	return fusedNone
}

// fusedSumState accumulates SUM(outer_product(a, b)) or
// SUM(matrix_multiply(a, b)) without materializing per-row results.
type fusedSumState struct {
	kind  fusedKind
	args  []plan.Expr
	acc   *linalg.Matrix
	count int64
}

// stepFused accumulates one input row directly into the buffer.
func (s *fusedSumState) stepFused(ec *plan.EvalCtx, row value.Row) error {
	a, err := s.args[0].Eval(ec, row)
	if err != nil {
		return err
	}
	b, err := s.args[1].Eval(ec, row)
	if err != nil {
		return err
	}
	if a.IsNull() || b.IsNull() {
		return nil
	}
	switch s.kind {
	case fusedOuterSum:
		if a.Kind != value.KindVector || b.Kind != value.KindVector {
			return fmt.Errorf("exec: SUM(outer_product) over %s, %s", a.Kind, b.Kind)
		}
		if s.acc == nil {
			s.acc = linalg.NewMatrix(a.Vec.Len(), b.Vec.Len())
		}
		if err := a.Vec.OuterAddInto(s.acc, b.Vec); err != nil {
			return err
		}
	case fusedMatMulSum:
		if a.Kind != value.KindMatrix || b.Kind != value.KindMatrix {
			return fmt.Errorf("exec: SUM(matrix_multiply) over %s, %s", a.Kind, b.Kind)
		}
		if s.acc == nil {
			s.acc = linalg.NewMatrix(a.Mat.Rows, b.Mat.Cols)
		}
		if err := a.Mat.MulMatAddInto(s.acc, b.Mat); err != nil {
			return err
		}
	default:
		return fmt.Errorf("exec: stepFused on unfused state")
	}
	s.count++
	return nil
}

// Step implements builtins.AggState for the (rare) non-fused path: the
// value arriving is an already-computed matrix to add.
func (s *fusedSumState) Step(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if v.Kind != value.KindMatrix {
		return fmt.Errorf("exec: fused SUM over %s", v.Kind)
	}
	if s.acc == nil {
		s.acc = v.Mat.Clone()
		s.count++
		return nil
	}
	s.count++
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
	if s.acc == nil {
		s.acc = o.acc
		s.count = o.count
		return nil
	}
	s.count += o.count
	return s.acc.AddInPlace(o.acc)
}

// Final implements builtins.AggState.
func (s *fusedSumState) Final() (value.Value, error) {
	if s.acc == nil {
		return value.Null(), nil // SQL: SUM of no rows is NULL
	}
	return value.Matrix(s.acc), nil
}
