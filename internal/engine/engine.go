// Package engine implements the mediator's physical execution engine
// (paper Figure 2 steps 4-6): it runs an optimized plan through the
// vectorized batch pipeline (internal/vexec), delegates submit subtrees
// to their wrappers, ships results over the simulated network, and
// combines subanswers with mediator-side operators, charging all work to
// the shared virtual clock. Measured (virtual) response times from this
// engine are the "Experiment" series of the reproduction.
//
// Virtual time is decoupled from the pipeline's wall-clock execution:
// submits charge the clock live (wrapper work, shipping, cache hits),
// while mediator-side operator time is charged analytically after the
// pipeline drains, from the per-operator row counts vexec reports. The
// analytic charges use exactly the formulas the row-at-a-time engine
// charged inline, so simulated response times — and the per-operator
// profile built from them — are preserved across the refactor, while
// wall-clock execution gets batching, morsel parallelism and spilling.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"disco/internal/algebra"
	"disco/internal/feedback"
	"disco/internal/netsim"
	"disco/internal/resultcache"
	"disco/internal/types"
	"disco/internal/vexec"
	"disco/internal/wrapper"
)

// MorselSpeedup models the simulated wall-clock speedup of the
// parallelizable breaker work (sort, hash, join pair matching) at a
// given worker count: near-linear with the standard 0.7 morsel
// efficiency factor. Workers <= 1 is exactly 1, keeping single-threaded
// simulated times bit-identical to the pre-vectorization engine. The
// mediator divides its Med* cost-model coefficients by the same factor
// so estimates and measurements stay aligned.
func MorselSpeedup(workers int) float64 {
	if workers <= 1 {
		return 1
	}
	return 1 + 0.7*float64(workers-1)
}

// Costs are the mediator's per-row processing times in milliseconds. They
// intentionally mirror the local-scope cost model's coefficients so that
// accurate cardinalities imply accurate mediator estimates.
type Costs struct {
	PerObj      float64
	PerPred     float64
	ProjPerObj  float64
	SortPerObj  float64
	HashPerObj  float64
	JoinPerPair float64
	// CachePerObj is the per-row charge for serving a submit from the
	// semantic result cache, behind the resultcache.HitFloorMS lookup
	// floor — the executed mirror of the ScopeCache pricing formula.
	CachePerObj float64
}

// DefaultCosts matches core.DefaultCoefficients' Med* entries; the cache
// charge matches resultcache.HitPerRowMS so estimate and execution agree.
func DefaultCosts() Costs {
	return Costs{
		PerObj:      0.004,
		PerPred:     0.006,
		ProjPerObj:  0.003,
		SortPerObj:  0.010,
		HashPerObj:  0.012,
		JoinPerPair: 0.004,
		CachePerObj: resultcache.HitPerRowMS,
	}
}

// SubmitCache serves and admits materialized submit results, keyed by the
// subtree's 128-bit structural hash. The mediator hands its semantic
// result cache in through Run.Results (nil disables it); the engine
// consults it at every submit boundary whose wrapper is up, and offers
// every complete wrapper answer back. Which entries are live is the
// implementation's business: the engine holds no invalidation state.
// Implementations must be safe for concurrent use.
//
// Callers sharing one plan across goroutines must pre-hash it (computing
// the root's StructuralHash fills every descendant's cache) — the
// mediator's Prepare does exactly that via Prepared.Hash.
type SubmitCache interface {
	// Get returns the cached rows for a live entry.
	Get(h algebra.Hash128) ([]types.Row, bool)
	// Put offers a complete (never partial/excluded) wrapper answer.
	Put(h algebra.Hash128, rows []types.Row, schema *types.Schema, bytes int64)
}

// Run carries one execution's inputs beyond the plan. The zero value
// executes the plan once, with no result cache.
type Run struct {
	// Results is the semantic result cache consulted at submit boundaries
	// (see SubmitCache). Nil leaves execution bit-identical to a build
	// without the cache.
	Results SubmitCache
	// Predicted maps plan nodes to the optimizer's estimated output
	// cardinality (CountObject). Only the adaptive staging loop reads it
	// (Engine.Replan wired); nodes without an entry are never checked.
	Predicted map[*algebra.Node]float64
}

// Engine executes optimized plans.
type Engine struct {
	wrappers map[string]wrapper.Wrapper
	net      *netsim.Network
	clock    *netsim.Clock
	costs    Costs

	// downMu guards down: submits consult it, and a wrapper failing
	// mid-query updates it.
	downMu sync.Mutex
	down   map[string]bool

	// SubmitHook, when set, observes every executed wrapper subquery
	// with its measured virtual time; the history recorder (§4.3.1)
	// hangs off it.
	SubmitHook func(wrapper string, subplan *algebra.Node, elapsedMS float64, rows int, bytes int64)
	// OnUnavailable, when set, is notified the first time a wrapper is
	// marked down (submit failed with wrapper.ErrUnavailable). The
	// mediator uses it to drop the wrapper's cost rules so estimation
	// falls back to the generic model.
	OnUnavailable func(wrapper string)
	// Exec configures the vectorized pipeline: morsel workers inside
	// breakers, the spill memory budget, spill directory and batch size.
	// The zero value (sequential, no spill) is the bit-identical mode.
	Exec vexec.Options
	// Adaptive tunes mid-flight re-optimization; it is read only when
	// Replan is wired.
	Adaptive AdaptiveOptions
	// Replan, set by the mediator when adaptive re-optimization is on,
	// re-costs the remaining plan of a paused query with materialized
	// subtrees pinned as exact leaves. Nil (the default) means Execute
	// never stages and never replans.
	Replan func(*ReplanRequest) (*ReplanResult, error)
}

// New builds an engine over the registered wrappers. All wrappers must
// share the engine's clock for measured response times to be meaningful;
// New enforces this. The wrapper map is snapshot-copied: an engine's view
// of the federation is immutable for its lifetime, so in-flight
// executions on a superseded engine stay race-free while a registration
// builds its replacement from the live map.
func New(clock *netsim.Clock, net *netsim.Network, wrappers map[string]wrapper.Wrapper, costs Costs) (*Engine, error) {
	ws := make(map[string]wrapper.Wrapper, len(wrappers))
	for name, w := range wrappers {
		if w.Clock() != clock {
			return nil, fmt.Errorf("engine: wrapper %s does not share the engine clock", name)
		}
		ws[name] = w
	}
	return &Engine{wrappers: ws, net: net, clock: clock, costs: costs, down: make(map[string]bool)}, nil
}

// Clock returns the shared virtual clock.
func (e *Engine) Clock() *netsim.Clock { return e.clock }

// MarkUnavailable records a wrapper as down: later submits to it are
// excluded (partial answers) without re-attempting the transport.
func (e *Engine) MarkUnavailable(name string) {
	e.downMu.Lock()
	already := e.down[name]
	e.down[name] = true
	e.downMu.Unlock()
	if !already && e.OnUnavailable != nil {
		e.OnUnavailable(name)
	}
}

// MarkAvailable clears a wrapper's down mark (an administrative revival;
// re-registration rebuilds the engine and clears marks anyway).
func (e *Engine) MarkAvailable(name string) {
	e.downMu.Lock()
	delete(e.down, name)
	e.downMu.Unlock()
}

// Unavailable lists the wrappers currently marked down, sorted.
func (e *Engine) Unavailable() []string {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	out := make([]string, 0, len(e.down))
	for n := range e.down {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) isDown(name string) bool {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.down[name]
}

// Result is a materialized query answer with its measured virtual time.
type Result struct {
	Rows      []types.Row
	Schema    *types.Schema
	ElapsedMS float64
	// Partial reports that at least one wrapper was unavailable and the
	// rows its subplans would have contributed are missing from the
	// answer (the paper's unavailable-source scenario: the mediator
	// answers with what the surviving sources provide).
	Partial bool
	// Excluded lists the unavailable wrappers, sorted.
	Excluded []string
	// Profile records the per-operator actuals of this run (output and
	// consumed cardinalities, virtual times, wrapper round-trips), keyed
	// by the executed plan's nodes. Submits excluded on the partial path
	// are recorded too — a degraded run's profile is never silently
	// empty.
	Profile *feedback.Profile
	// Replans counts mid-flight re-cost attempts by the adaptive staging
	// loop; PlanSwitches counts the ones that actually switched the
	// running plan. Both are zero unless Replan is wired.
	Replans      int
	PlanSwitches int
	// ExecutedPlan is the plan that finished the query when it differs
	// from the submitted one (PlanSwitches > 0); nil otherwise. Profile
	// entries are keyed by this plan's nodes for the switched suffix.
	ExecutedPlan *algebra.Node
}

// submitFacts are the transport facts of one executed submit boundary,
// recorded while the pipeline's Leaf hook runs it and folded into the
// profile afterwards.
type submitFacts struct {
	trips     int
	bytes     int64
	excluded  bool
	cached    bool
	elapsedMS float64
}

// execState accumulates per-execution degradation facts, the profile
// under construction, the per-submit transport facts, and — when the
// adaptive loop stages the plan — the materialized output of every
// completed stage.
type execState struct {
	results  SubmitCache
	excluded map[string]bool
	prof     *feedback.Profile
	submits  map[*algebra.Node]*submitFacts
	// mat is keyed by stage root (nil unless staging). A switched plan
	// reuses the same leaf-unit node pointers, so entries stay valid
	// across switches.
	mat map[*algebra.Node][]types.Row
}

func (st *execState) exclude(name string) {
	if st.excluded == nil {
		st.excluded = make(map[string]bool)
	}
	st.excluded[name] = true
}

// Execute runs a resolved, optimized plan and returns the answer with the
// virtual time it took. A submit whose wrapper is (or becomes) unavailable
// does not fail the query: its subtree contributes no rows and the result
// is marked Partial with the wrapper listed in Excluded.
//
// With Replan wired the plan first runs stage by stage through its
// materialization boundaries, which may switch the plan mid-flight (see
// stage); without it the whole plan is the one and only stage.
func (e *Engine) Execute(plan *algebra.Node, run Run) (*Result, error) {
	watch := netsim.StartWatch(e.clock)
	st := execState{results: run.Results, prof: feedback.NewProfile(), submits: make(map[*algebra.Node]*submitFacts)}
	res := &Result{}
	cur := plan
	if e.Replan != nil {
		var err error
		if cur, err = e.stage(plan, run.Predicted, &st, res); err != nil {
			return nil, err
		}
	}
	// Final stage: whatever remains of the (possibly switched) plan, with
	// every earlier stage served from its materialization.
	rows, err := e.runStage(cur, &st)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Schema = cur.OutSchema
	res.ElapsedMS = watch.ElapsedMS()
	res.Profile = st.prof
	if len(st.excluded) > 0 {
		res.Partial = true
		res.Excluded = make([]string, 0, len(st.excluded))
		for n := range st.excluded {
			res.Excluded = append(res.Excluded, n)
		}
		sort.Strings(res.Excluded)
	}
	st.prof.ElapsedMS = res.ElapsedMS
	st.prof.Partial = res.Partial
	if res.PlanSwitches > 0 {
		res.ExecutedPlan = cur
	}
	return res, nil
}

// runStage drains one stage through the vectorized pipeline, serving
// earlier stages from their materializations, and charges its newly
// executed operators to the virtual clock.
func (e *Engine) runStage(root *algebra.Node, st *execState) ([]types.Row, error) {
	counts := vexec.Counts{}
	leaf := func(n *algebra.Node) ([]types.Row, bool, error) {
		if rows, ok := st.mat[n]; ok {
			return rows, true, nil
		}
		return e.leaf(n, st)
	}
	rows, err := vexec.Run(root, &vexec.Env{Opts: e.Exec, Counts: counts, Leaf: leaf})
	if err != nil {
		return nil, err
	}
	e.charge(root, counts, st)
	return rows, nil
}

// leaf is the pipeline's Leaf hook: it executes submit boundaries
// (wrapper delegation, outage degradation, result cache, shipping) with
// live clock charging, rejects bare scans, and leaves every other node
// to the generic vectorized operators.
func (e *Engine) leaf(n *algebra.Node, st *execState) ([]types.Row, bool, error) {
	switch n.Kind {
	case algebra.OpSubmit:
		t0 := e.clock.Now()
		f := &submitFacts{}
		st.submits[n] = f
		rows, err := e.submit(n, st, f)
		f.elapsedMS = e.clock.Now() - t0
		return rows, true, err

	case algebra.OpScan:
		return nil, false, fmt.Errorf("engine: scan of %s@%s not placed under a submit", n.Collection, n.Wrapper)
	}
	return nil, false, nil
}

// submit executes one submit boundary exactly as the row-at-a-time
// engine did, recording the transport facts for the profile.
func (e *Engine) submit(n *algebra.Node, st *execState, f *submitFacts) ([]types.Row, error) {
	w, ok := e.wrappers[n.Wrapper]
	if !ok {
		return nil, fmt.Errorf("engine: submit to unknown wrapper %q", n.Wrapper)
	}
	if e.isDown(n.Wrapper) {
		// Known-dead source: exclude without touching the transport.
		// The down check comes before the cache — a cached answer must
		// never mask an outage into a silently complete result.
		st.exclude(n.Wrapper)
		f.excluded = true
		return nil, nil
	}
	if st.results != nil {
		if rows, ok := st.results.Get(n.StructuralHash()); ok {
			// Serve the materialized subtree: charge the ScopeCache
			// formula instead of the wrapper and the wire.
			e.clock.Advance(resultcache.HitFloorMS + float64(len(rows))*e.costs.CachePerObj)
			f.cached = true
			return rows, nil
		}
	}
	start := e.clock.Now()
	f.trips = 1
	res, err := w.Execute(n.Children[0])
	if err != nil {
		if errors.Is(err, wrapper.ErrUnavailable) {
			// The source died mid-query: degrade to a partial answer
			// rather than failing, per the paper's unavailable-source
			// discussion.
			e.MarkUnavailable(n.Wrapper)
			st.exclude(n.Wrapper)
			f.excluded = true
			return nil, nil
		}
		return nil, fmt.Errorf("engine: wrapper %s: %w", n.Wrapper, err)
	}
	if e.net != nil {
		e.net.Ship(n.Wrapper, res.Bytes)
	}
	f.bytes = res.Bytes
	if e.SubmitHook != nil {
		e.SubmitHook(n.Wrapper, n.Children[0], e.clock.Now()-start, len(res.Rows), res.Bytes)
	}
	if st.results != nil {
		// Only a complete wrapper answer is offered; the excluded paths
		// above return before reaching here, so a partial run can never
		// seed the cache (the partial-answer leakage guard).
		st.results.Put(n.StructuralHash(), res.Rows, n.OutSchema, res.Bytes)
	}
	return res.Rows, nil
}

// charge replays the mediator-side operator costs analytically after the
// pipeline drains, advancing the virtual clock and building the profile
// in post-order. The per-operator formulas are identical to the charges
// the row-at-a-time engine made inline, so SubtreeMS/OwnMS decompose the
// same way they always did: a node's own share is its formula, its
// subtree time is that plus the children's. Submit boundaries carry the
// live-measured facts from the Leaf hook and are opaque below (the
// wrapper executed the subtree; there are no mediator charges under it).
// Breaker charges (sort, hash, pair matching) are divided by
// MorselSpeedup — the simulated benefit of intra-query parallelism.
// Nodes already in the profile were charged by an earlier stage: they
// return their recorded actuals without advancing the clock again, since
// re-reading a materialized row set is free.
func (e *Engine) charge(n *algebra.Node, counts vexec.Counts, st *execState) *feedback.OpActual {
	if a, ok := st.prof.ByNode[n]; ok {
		return a
	}
	if n.Kind == algebra.OpSubmit {
		f := st.submits[n]
		if f == nil {
			f = &submitFacts{}
		}
		out := counts.Out(n)
		a := &feedback.OpActual{
			// The wrapper executes the subtree opaquely; the boundary's
			// consumed rows are the rows it delivered.
			RowsIn:     out,
			RowsOut:    out,
			SubtreeMS:  f.elapsedMS,
			OwnMS:      f.elapsedMS,
			Wrapper:    n.Wrapper,
			RoundTrips: f.trips,
			Bytes:      f.bytes,
			Excluded:   f.excluded,
			FromCache:  f.cached,
		}
		if f.cached {
			st.prof.CacheServed++
		}
		st.prof.ByNode[n] = a
		return a
	}
	var kidsMS float64
	var in int64
	for _, c := range n.Children {
		ca := e.charge(c, counts, st)
		kidsMS += ca.SubtreeMS
		in += ca.RowsOut
	}
	out := counts.Out(n)
	own := e.ownCharge(n, counts, in, out)
	e.clock.Advance(own)
	a := &feedback.OpActual{RowsIn: in, RowsOut: out, OwnMS: own, SubtreeMS: own + kidsMS}
	st.prof.ByNode[n] = a
	return a
}

// ownCharge is one mediator operator's virtual-time formula over its
// consumed and produced cardinalities.
func (e *Engine) ownCharge(n *algebra.Node, counts vexec.Counts, in, out int64) float64 {
	speed := MorselSpeedup(e.Exec.Workers)
	switch n.Kind {
	case algebra.OpSelect:
		return float64(in) * e.costs.PerPred
	case algebra.OpProject:
		return float64(in) * e.costs.ProjPerObj
	case algebra.OpSort:
		return nLogN(int(in)) * e.costs.SortPerObj / speed
	case algebra.OpDupElim:
		return float64(in) * e.costs.HashPerObj / speed
	case algebra.OpAggregate:
		return float64(in)*e.costs.HashPerObj/speed + float64(out)*e.costs.PerObj
	case algebra.OpUnion:
		return float64(out) * e.costs.PerObj
	case algebra.OpJoin:
		l := counts.Out(n.Children[0])
		r := counts.Out(n.Children[1])
		if counts.Stat(n).HashJoin {
			return float64(l+r)*e.costs.HashPerObj/speed + float64(out)*e.costs.PerObj
		}
		return float64(l*r) * e.costs.JoinPerPair / speed
	}
	return 0
}

func nLogN(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	f := float64(n)
	// log2 via the change of base; n log2(n+2) matches the cost model.
	l := 0.0
	for x := n + 2; x > 1; x >>= 1 {
		l++
	}
	return f * l
}
