package builtins

import "fmt"

// Vectorized scalar kernels for the executor's column windows. Each kernel
// writes the destination lanes named by sel (every lane of [0,len(dst)) when
// sel is nil) and leaves other lanes untouched, so chained predicates only compute
// on surviving lanes. Semantics mirror Arith/Compare exactly: INT op INT
// stays int64 with a division-by-zero error, every other numeric combination
// (and every numeric comparison, including INT=INT) goes through the float64
// representation as AsDouble does. Each operator runs its own single-op loop,
// so the compiler cannot fuse a multiply-add across expression nodes and
// float results stay bit-identical to the row evaluator's one-op-at-a-time
// arithmetic.

// VecArithInt is the vectorized arithScalar INT×INT leg.
func VecArithInt(op string, dst, l, r []int64, sel []int32) error {
	switch op {
	case "+":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] + r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] + r[i]
			}
		}
	case "-":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] - r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] - r[i]
			}
		}
	case "*":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] * r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] * r[i]
			}
		}
	case "/":
		if sel == nil {
			for i := range dst {
				if r[i] == 0 {
					return fmt.Errorf("builtins: integer division by zero")
				}
				dst[i] = l[i] / r[i]
			}
		} else {
			for _, i := range sel {
				if r[i] == 0 {
					return fmt.Errorf("builtins: integer division by zero")
				}
				dst[i] = l[i] / r[i]
			}
		}
	default:
		return fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	return nil
}

// VecArithFloat is the vectorized arithScalar float leg (either operand
// DOUBLE or LABELED SCALAR; labels are dropped exactly as arithScalar drops
// them).
func VecArithFloat(op string, dst, l, r []float64, sel []int32) error {
	switch op {
	case "+":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] + r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] + r[i]
			}
		}
	case "-":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] - r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] - r[i]
			}
		}
	case "*":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] * r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] * r[i]
			}
		}
	case "/":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] / r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] / r[i]
			}
		}
	default:
		return fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	return nil
}

// VecCmpFloat is the vectorized numeric comparison: every numeric pair —
// including INT with INT — compares through float64 exactly as Compare does
// via AsDouble (deliberately lossy above 2^53, like the scalar evaluator).
func VecCmpFloat(op string, dst []bool, l, r []float64, sel []int32) error {
	return vecCmpNum(op, dst, l, r, sel)
}

// VecCmpInt is VecCmpFloat over two INT columns, converting each lane to
// float64 in the loop instead of into scratch arrays.
func VecCmpInt(op string, dst []bool, l, r []int64, sel []int32) error {
	return vecCmpNum(op, dst, l, r, sel)
}

func vecCmpNum[T int64 | float64](op string, dst []bool, l, r []T, sel []int32) error {
	switch op {
	case "=":
		if sel == nil {
			for i := range dst {
				dst[i] = float64(l[i]) == float64(r[i])
			}
		} else {
			for _, i := range sel {
				dst[i] = float64(l[i]) == float64(r[i])
			}
		}
	case "<>":
		if sel == nil {
			for i := range dst {
				dst[i] = float64(l[i]) != float64(r[i])
			}
		} else {
			for _, i := range sel {
				dst[i] = float64(l[i]) != float64(r[i])
			}
		}
	case "<":
		if sel == nil {
			for i := range dst {
				dst[i] = float64(l[i]) < float64(r[i])
			}
		} else {
			for _, i := range sel {
				dst[i] = float64(l[i]) < float64(r[i])
			}
		}
	case "<=":
		// Ordering goes through Value.Compare in the scalar evaluator, which reports
		// 0 when neither side is greater — so a NaN operand makes <= and >=
		// TRUE, unlike IEEE. Replicate that: <= is !(l > r), >= is !(l < r).
		if sel == nil {
			for i := range dst {
				dst[i] = !(float64(l[i]) > float64(r[i]))
			}
		} else {
			for _, i := range sel {
				dst[i] = !(float64(l[i]) > float64(r[i]))
			}
		}
	case ">":
		if sel == nil {
			for i := range dst {
				dst[i] = float64(l[i]) > float64(r[i])
			}
		} else {
			for _, i := range sel {
				dst[i] = float64(l[i]) > float64(r[i])
			}
		}
	case ">=":
		if sel == nil {
			for i := range dst {
				dst[i] = !(float64(l[i]) < float64(r[i]))
			}
		} else {
			for _, i := range sel {
				dst[i] = !(float64(l[i]) < float64(r[i]))
			}
		}
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	return nil
}

// VecArithConst is the INT×INT (T = int64) or float (T = float64) leg of
// VecArithInt/VecArithFloat with a constant right operand k, so a literal
// never has to be broadcast into a column first. An integer division by a
// zero constant fails as soon as one lane is live, as the per-lane kernel
// does.
func VecArithConst[T int64 | float64](op string, dst, l []T, k T, sel []int32) error {
	var zero T
	if _, isInt := any(zero).(int64); isInt && op == "/" && k == 0 {
		if sel == nil && len(dst) > 0 || len(sel) > 0 {
			return fmt.Errorf("builtins: integer division by zero")
		}
		return nil // no live lane
	}
	var f func(x T) T
	switch op {
	case "+":
		f = func(x T) T { return x + k }
	case "-":
		f = func(x T) T { return x - k }
	case "*":
		f = func(x T) T { return x * k }
	case "/":
		f = func(x T) T { return x / k }
	default:
		return fmt.Errorf("builtins: unknown arithmetic operator %q", op)
	}
	if sel == nil {
		for i := range dst {
			dst[i] = f(l[i])
		}
	} else {
		for _, i := range sel {
			dst[i] = f(l[i])
		}
	}
	return nil
}

// VecCmpConst is VecCmpFloat with a constant right operand k: each live lane
// of l compares through float64 against k.
func VecCmpConst[T int64 | float64](op string, dst []bool, l []T, k float64, sel []int32) error {
	var f func(x float64) bool
	switch op {
	case "=":
		f = func(x float64) bool { return x == k }
	case "<>":
		f = func(x float64) bool { return x != k }
	case "<":
		f = func(x float64) bool { return x < k }
	case "<=":
		f = func(x float64) bool { return !(x > k) } // NaN rule, see VecCmpFloat
	case ">":
		f = func(x float64) bool { return x > k }
	case ">=":
		f = func(x float64) bool { return !(x < k) }
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	if sel == nil {
		for i := range dst {
			dst[i] = f(float64(l[i]))
		}
	} else {
		for _, i := range sel {
			dst[i] = f(float64(l[i]))
		}
	}
	return nil
}

// VecCmpString is the vectorized string comparison (Equal for =/<>,
// Value.Compare byte order for the rest).
func VecCmpString(op string, dst []bool, l, r []string, sel []int32) error {
	var f func(a, b string) bool
	switch op {
	case "=":
		f = func(a, b string) bool { return a == b }
	case "<>":
		f = func(a, b string) bool { return a != b }
	case "<":
		f = func(a, b string) bool { return a < b }
	case "<=":
		f = func(a, b string) bool { return a <= b }
	case ">":
		f = func(a, b string) bool { return a > b }
	case ">=":
		f = func(a, b string) bool { return a >= b }
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	if sel == nil {
		for i := range dst {
			dst[i] = f(l[i], r[i])
		}
	} else {
		for _, i := range sel {
			dst[i] = f(l[i], r[i])
		}
	}
	return nil
}

// VecCmpBool is the vectorized boolean comparison (false orders before true,
// as Value.Compare defines).
func VecCmpBool(op string, dst, l, r []bool, sel []int32) error {
	var f func(a, b bool) bool
	switch op {
	case "=":
		f = func(a, b bool) bool { return a == b }
	case "<>":
		f = func(a, b bool) bool { return a != b }
	case "<":
		f = func(a, b bool) bool { return !a && b }
	case "<=":
		f = func(a, b bool) bool { return !a || b }
	case ">":
		f = func(a, b bool) bool { return a && !b }
	case ">=":
		f = func(a, b bool) bool { return a || !b }
	default:
		return fmt.Errorf("builtins: unknown comparison operator %q", op)
	}
	if sel == nil {
		for i := range dst {
			dst[i] = f(l[i], r[i])
		}
	} else {
		for _, i := range sel {
			dst[i] = f(l[i], r[i])
		}
	}
	return nil
}

// VecLogic is the vectorized two-valued AND/OR. Like the row evaluator it
// never short-circuits: both operand columns are fully evaluated before the
// combine.
func VecLogic(op string, dst, l, r []bool, sel []int32) error {
	switch op {
	case "AND":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] && r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] && r[i]
			}
		}
	case "OR":
		if sel == nil {
			for i := range dst {
				dst[i] = l[i] || r[i]
			}
		} else {
			for _, i := range sel {
				dst[i] = l[i] || r[i]
			}
		}
	default:
		return fmt.Errorf("builtins: unknown logical operator %q", op)
	}
	return nil
}

// VecNot is vectorized logical negation.
func VecNot(dst, src []bool, sel []int32) {
	if sel == nil {
		for i := range dst {
			dst[i] = !src[i]
		}
	} else {
		for _, i := range sel {
			dst[i] = !src[i]
		}
	}
}
