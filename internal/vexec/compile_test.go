package vexec

import (
	"math"
	"testing"

	"disco/internal/stats"
	"disco/internal/types"
)

// TestCmpFloatMatchesEval pins the numeric comparison fast path to
// CmpOp.Eval over ints, floats, signed zeros, infinities and NaN.
func TestCmpFloatMatchesEval(t *testing.T) {
	vals := []types.Constant{
		types.Int(-3), types.Int(0), types.Int(3), types.Float(3), types.Float(2.5),
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.Inf(1)),
		types.Float(math.Inf(-1)), types.Float(math.NaN()), types.Int(math.MaxInt64),
	}
	ops := []stats.CmpOp{stats.CmpEQ, stats.CmpNE, stats.CmpLT, stats.CmpLE, stats.CmpGT, stats.CmpGE, stats.CmpOp(99)}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				if got, want := cmpFloat(op, a.AsFloat(), b.AsFloat()), op.Eval(a, b); got != want {
					t.Errorf("%v %v %v: cmpFloat %v, CmpOp.Eval %v", a, op, b, got, want)
				}
			}
		}
	}
}
