package engine

import (
	"disco/internal/algebra"
	"disco/internal/feedback"
	"disco/internal/rowops"
	"disco/internal/types"
	"disco/internal/vexec"
)

// Tuning of the adaptive staging loop.
const (
	// DefaultAdaptiveThreshold is the cardinality q-error past which a
	// materialized boundary triggers a re-cost of the remaining plan.
	// 3x is well past estimation noise but well before the 10x errors a
	// stale registration produces.
	DefaultAdaptiveThreshold = 3.0
	// DefaultAdaptiveMargin is the hysteresis fraction: the re-costed
	// plan must beat the current remainder by this much before the
	// engine switches, so near-ties never cause churn.
	DefaultAdaptiveMargin = 0.2
	// DefaultAdaptiveMaxSwitches bounds switches per query: each switch
	// re-enumerates the suffix, and past a couple the remaining plan is
	// dominated by pinned facts anyway.
	DefaultAdaptiveMaxSwitches = 2
)

// AdaptiveOptions tune mid-flight adaptive re-optimization. Whether it
// runs at all is decided by Engine.Replan being wired.
type AdaptiveOptions struct {
	// Threshold is the observed-vs-predicted cardinality q-error that
	// triggers a re-cost (0 = DefaultAdaptiveThreshold).
	Threshold float64
	// Margin is the hysteresis fraction a candidate must win by
	// (0 = DefaultAdaptiveMargin).
	Margin float64
}

// PinnedActual is the observed output of one fully materialized subtree,
// handed to the re-optimizer as an exact, zero-cost leaf.
type PinnedActual struct {
	Rows  int64
	Bytes int64
}

// ReplanRequest asks the planner to re-cost the un-executed remainder of
// a running query. Remaining is the currently executing plan; every node
// in Pinned is already materialized, its subtree must be treated as an
// atomic leaf with the recorded actuals, and re-reading it costs
// nothing.
type ReplanRequest struct {
	Remaining *algebra.Node
	Pinned    map[*algebra.Node]PinnedActual
}

// ReplanResult is the planner's answer: the best remaining plan it
// found, the estimated cost of that plan and of the current remainder
// (both priced with the pins, so they are directly comparable), and the
// per-node predicted cardinalities of the new plan for later divergence
// checks.
type ReplanResult struct {
	Plan      *algebra.Node
	NewCost   float64
	OldCost   float64
	Predicted map[*algebra.Node]float64
}

// stage is Execute's adaptive staging loop. It runs the plan's
// materialization boundaries — submit leaves and pipeline breakers — one
// at a time, comparing each one's observed cardinality against the
// optimizer's prediction. Past the q-error threshold it asks Replan to
// re-cost the remaining plan with the materialized subtrees pinned as
// exact zero-cost leaves, and switches to the candidate when it wins by
// the hysteresis margin. It returns the plan whose final stage Execute
// must still run.
func (e *Engine) stage(plan *algebra.Node, predicted map[*algebra.Node]float64, st *execState, res *Result) (*algebra.Node, error) {
	thresh := e.Adaptive.Threshold
	if thresh <= 1 {
		thresh = DefaultAdaptiveThreshold
	}
	margin := e.Adaptive.Margin
	if margin <= 0 {
		margin = DefaultAdaptiveMargin
	}
	st.mat = make(map[*algebra.Node][]types.Row)
	cur := plan
	for {
		stage := nextStage(cur, st.mat)
		if stage == nil || stage == cur {
			return cur, nil
		}
		rows, err := e.runStage(stage, st)
		if err != nil {
			return nil, err
		}
		st.mat[stage] = rows

		est, ok := predicted[stage]
		if !ok || res.PlanSwitches >= DefaultAdaptiveMaxSwitches {
			continue
		}
		if feedback.QError(est, float64(len(rows)), 1) < thresh {
			continue
		}
		// The estimate is proven wrong at this boundary: re-cost the
		// remainder with every materialized subtree pinned to its facts.
		res.Replans++
		req := &ReplanRequest{Remaining: cur, Pinned: make(map[*algebra.Node]PinnedActual, len(st.mat))}
		for n, rs := range st.mat {
			req.Pinned[n] = PinnedActual{Rows: int64(len(rs)), Bytes: rowops.RowBytes(rs)}
		}
		rr, err := e.Replan(req)
		if err != nil || rr == nil || rr.Plan == nil {
			continue // replanning is best-effort; estimation failure keeps the current plan
		}
		if rr.Plan != cur && rr.NewCost < rr.OldCost*(1-margin) {
			cur = rr.Plan
			res.PlanSwitches++
			if rr.Predicted != nil {
				predicted = rr.Predicted
			}
		}
	}
}

// nextStage returns the deepest un-materialized staging boundary of the
// plan in post-order: a submit leaf or a pipeline breaker all of whose
// inner boundaries are already materialized. Returning the root (or nil)
// means the rest of the plan is one final stage. Submit subtrees are
// opaque — the wrapper executes them whole.
func nextStage(n *algebra.Node, mat map[*algebra.Node][]types.Row) *algebra.Node {
	if _, done := mat[n]; done {
		return nil
	}
	if n.Kind == algebra.OpSubmit {
		return n
	}
	for _, c := range n.Children {
		if s := nextStage(c, mat); s != nil {
			return s
		}
	}
	if vexec.IsBreaker(n) {
		return n
	}
	return nil
}
