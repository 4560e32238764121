// Package history implements the paper's §4.3.1 extension: HERMES-style
// [ACPS96] historical costs. After a wrapper subquery executes, its
// observed cost vector (TimeFirst, TotalTime, cardinality, size) is
// recorded as a query-scope rule at the very top of the specialization
// hierarchy, so the next estimation of the identical subquery returns the
// real cost. The parameter-adjustment variant §4.3.1 proposes against
// HERMES's rule proliferation — adjust existing parameters toward the
// observations instead of storing per-query rules — is the execution-
// feedback loop's feedback.Adjuster.
//
// The recorder bounds that proliferation itself: it keeps at most
// maxShapes subquery shapes in a least-recently-recorded (LRU) store, and
// evicting a shape withdraws its rule, so the next estimate of it falls
// back to the blended model. Recording costs O(1) in the number of
// recorded shapes: entries are keyed by the submit plan's structural hash
// (confirmed with a structural equality check), the six constant formulas
// are built directly as bytecode, and the registry files the rule under
// the same hash instead of re-sorting the wrapper's rule bucket.
package history

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/costvm"
)

// maxShapes bounds the subquery shapes a Recorder keeps; recording a new
// shape beyond it evicts the least recently recorded one.
const maxShapes = 1024

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
	entries map[algebra.Hash128]*list.Element // of *entry
	lru     *list.List                        // of *entry, front = most recently recorded
}

type entry struct {
	hash    algebra.Hash128
	wrapper string
	plan    *algebra.Node // the recorded submit plan; every rule's Exact
	vec     Vector
	rule    *core.Rule
}

// NewRecorder attaches a recorder to the registry rules are injected
// into.
func NewRecorder(reg *core.Registry) *Recorder {
	return &Recorder{reg: reg, entries: make(map[algebra.Hash128]*list.Element), lru: list.New()}
}

// Len reports the number of recorded subquery shapes.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// find returns the entry recording plan below a submit to wrapper, or nil.
// A hash shared with a structurally different plan (a 128-bit collision)
// also yields nil.
func (r *Recorder) find(h algebra.Hash128, wrapper string, plan *algebra.Node) *list.Element {
	el, ok := r.entries[h]
	if !ok {
		return nil
	}
	if e := el.Value.(*entry); e.wrapper != wrapper || !e.plan.Children[0].Equal(plan) {
		return nil
	}
	return el
}

// Record stores the observed execution of a wrapper subquery and injects
// (or updates) its query-scope rule. plan is the subplan below the
// submit; elapsed covers the whole boundary — wrapper work, result
// delivery and shipping — so the injected rule is keyed to the submit
// node itself and replaces the submit estimate wholesale (no double
// counting of delivery). The plan is only read: a new shape is recorded
// from a clone, so callers may keep executing it.
func (r *Recorder) Record(wrapper string, plan *algebra.Node, elapsedMS float64, rows int64, bytes int64) error {
	if wrapper == "" || plan == nil {
		return fmt.Errorf("history: record needs a wrapper and plan")
	}
	h := algebra.SubmitHash(plan, wrapper)
	r.mu.Lock()
	defer r.mu.Unlock()
	var e *entry
	if el := r.find(h, wrapper, plan); el != nil {
		r.lru.MoveToFront(el)
		e = el.Value.(*entry)
	} else if _, taken := r.entries[h]; taken {
		// A hash collision between distinct shapes: leave the newcomer
		// unrecorded rather than let one rule answer for both plans.
		return nil
	} else {
		e = &entry{hash: h, wrapper: wrapper, plan: algebra.Submit(plan.Clone(), wrapper)}
		r.entries[h] = r.lru.PushFront(e)
		r.evict()
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
	// place. The Exact plan is never mutated, so the rules share it.
	fresh := &core.Rule{
		Op:       e.plan.Kind,
		Exact:    e.plan,
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

// evict drops least recently recorded shapes, and their rules, down to
// maxShapes; callers hold r.mu.
func (r *Recorder) evict() {
	for r.lru.Len() > maxShapes {
		e := r.lru.Remove(r.lru.Back()).(*entry)
		delete(r.entries, e.hash)
		if e.rule != nil {
			r.reg.RemoveQueryRule(e.wrapper, e.rule)
		}
	}
}

// Lookup returns the recorded vector for a subquery shape; plan is the
// subplan below the submit, as passed to Record.
func (r *Recorder) Lookup(wrapper string, plan *algebra.Node) (Vector, bool) {
	h := algebra.SubmitHash(plan, wrapper)
	r.mu.Lock()
	defer r.mu.Unlock()
	el := r.find(h, wrapper, plan)
	if el == nil {
		return Vector{}, false
	}
	return el.Value.(*entry).vec, true
}

// Summary renders the recorded vectors, most expensive first (ties most
// recently recorded first).
func (r *Recorder) Summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := make([]*entry, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		rows = append(rows, el.Value.(*entry))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].vec.TotalTimeMS > rows[j].vec.TotalTimeMS })
	var b strings.Builder
	for _, e := range rows {
		fmt.Fprintf(&b, "%8.1f ms  %6.0f objects  x%d  @%s  %s\n",
			e.vec.TotalTimeMS, e.vec.CountObject, e.vec.Samples, e.wrapper,
			strings.ReplaceAll(strings.TrimSpace(e.plan.String()), "\n", " / "))
	}
	return b.String()
}

func constFormulas(v Vector) ([]core.Formula, error) {
	timeNext := 0.0
	if v.CountObject > 0 {
		timeNext = (v.TotalTimeMS - v.TimeFirstMS) / v.CountObject
	}
	objectSize := 0.0
	if v.CountObject > 0 {
		objectSize = v.TotalSize / v.CountObject
	}
	specs := [...]struct {
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
		prog, err := costvm.ConstProgram(s.val)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Formula{Var: s.name, Prog: prog})
	}
	return out, nil
}
