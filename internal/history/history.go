// Package history implements the paper's §4.3.1 extension: HERMES-style
// [ACPS96] historical costs. After a wrapper subquery executes, its
// observed cost vector (TimeFirst, TotalTime, cardinality, size) is
// recorded as a query-scope rule at the very top of the specialization
// hierarchy, so the next estimation of the identical subquery returns the
// real cost. The parameter-adjustment variant §4.3.1 proposes against
// HERMES's rule proliferation — adjust existing parameters toward the
// observations instead of storing per-query rules — is the execution-
// feedback loop's feedback.Adjuster.
package history

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/costvm"
	"disco/internal/types"
)

// Vector is the observed cost of one subquery execution, averaged over
// repetitions (the paper assumes identical subqueries cost the same
// regardless of time).
type Vector struct {
	TimeFirstMS float64
	TotalTimeMS float64
	CountObject float64
	TotalSize   float64
	Samples     int
}

// Recorder stores cost vectors and maintains the corresponding
// query-scope rules in the registry.
type Recorder struct {
	mu      sync.Mutex
	reg     *core.Registry
	entries map[string]*entry
}

type entry struct {
	vec  Vector
	rule *core.Rule
}

// NewRecorder attaches a recorder to the registry rules are injected
// into.
func NewRecorder(reg *core.Registry) *Recorder {
	return &Recorder{reg: reg, entries: make(map[string]*entry)}
}

// Len reports the number of recorded subquery shapes.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// signature canonically identifies a subquery at a wrapper.
func signature(wrapper string, plan *algebra.Node) string {
	return wrapper + "\x00" + plan.String()
}

// Record stores the observed execution of a wrapper subquery and injects
// (or updates) its query-scope rule. plan is the subplan below the
// submit; elapsed covers the whole boundary — wrapper work, result
// delivery and shipping — so the injected rule is keyed to the submit
// node itself and replaces the submit estimate wholesale (no double
// counting of delivery).
func (r *Recorder) Record(wrapper string, plan *algebra.Node, elapsedMS float64, rows int64, bytes int64) error {
	if wrapper == "" || plan == nil {
		return fmt.Errorf("history: record needs a wrapper and plan")
	}
	plan = algebra.Submit(plan.Clone(), wrapper)
	r.mu.Lock()
	defer r.mu.Unlock()
	sig := signature(wrapper, plan)
	e, ok := r.entries[sig]
	if !ok {
		e = &entry{}
		r.entries[sig] = e
	}
	// Running mean over repetitions.
	n := float64(e.vec.Samples)
	e.vec.TotalTimeMS = (e.vec.TotalTimeMS*n + elapsedMS) / (n + 1)
	e.vec.TimeFirstMS = e.vec.TotalTimeMS // materialized results: first == last
	e.vec.CountObject = (e.vec.CountObject*n + float64(rows)) / (n + 1)
	e.vec.TotalSize = (e.vec.TotalSize*n + float64(bytes)) / (n + 1)
	e.vec.Samples++

	formulas, err := constFormulas(e.vec)
	if err != nil {
		return err
	}
	// Published rules are immutable — concurrent estimations may be
	// matching against them — so repeat observations build a fresh rule
	// and swap the registry pointer instead of rewriting formulas in
	// place.
	fresh := &core.Rule{
		Op:       plan.Kind,
		Exact:    plan.Clone(),
		Formulas: formulas,
		Source:   fmt.Sprintf("history %s (%d samples)", wrapper, e.vec.Samples),
	}
	if e.rule != nil && r.reg.ReplaceQueryRule(wrapper, e.rule, fresh) {
		e.rule = fresh
		return nil
	}
	e.rule = fresh
	r.reg.AddQueryRule(wrapper, fresh)
	return nil
}

// Lookup returns the recorded vector for a subquery shape; plan is the
// subplan below the submit, as passed to Record.
func (r *Recorder) Lookup(wrapper string, plan *algebra.Node) (Vector, bool) {
	wrapped := algebra.Submit(plan.Clone(), wrapper)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[signature(wrapper, wrapped)]
	if !ok {
		return Vector{}, false
	}
	return e.vec, true
}

// Summary renders the recorded vectors, most expensive first.
func (r *Recorder) Summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	type row struct {
		sig string
		vec Vector
	}
	rows := make([]row, 0, len(r.entries))
	for sig, e := range r.entries {
		rows = append(rows, row{sig, e.vec})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].vec.TotalTimeMS > rows[j].vec.TotalTimeMS })
	var b strings.Builder
	for _, rw := range rows {
		parts := strings.SplitN(rw.sig, "\x00", 2)
		fmt.Fprintf(&b, "%8.1f ms  %6.0f objects  x%d  @%s  %s\n",
			rw.vec.TotalTimeMS, rw.vec.CountObject, rw.vec.Samples, parts[0],
			strings.ReplaceAll(strings.TrimSpace(parts[1]), "\n", " / "))
	}
	return b.String()
}

func constFormulas(v Vector) ([]core.Formula, error) {
	mk := func(name string, val float64) (core.Formula, error) {
		prog, err := costvm.CompileString(types.Float(val).String())
		if err != nil {
			return core.Formula{}, err
		}
		return core.Formula{Var: name, Prog: prog}, nil
	}
	timeNext := 0.0
	if v.CountObject > 0 {
		timeNext = (v.TotalTimeMS - v.TimeFirstMS) / v.CountObject
	}
	objectSize := 0.0
	if v.CountObject > 0 {
		objectSize = v.TotalSize / v.CountObject
	}
	specs := []struct {
		name string
		val  float64
	}{
		{"CountObject", v.CountObject},
		{"ObjectSize", objectSize},
		{"TotalSize", v.TotalSize},
		{"TimeFirst", v.TimeFirstMS},
		{"TotalTime", v.TotalTimeMS},
		{"TimeNext", timeNext},
	}
	out := make([]core.Formula, 0, len(specs))
	for _, s := range specs {
		f, err := mk(s.name, s.val)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
