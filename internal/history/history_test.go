package history

import (
	"strings"
	"sync"
	"testing"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/stats"
	"disco/internal/types"
)

// histView is a minimal CatalogView for these tests.
type histView struct{}

func (histView) HasCollection(w, c string) bool { return c == "Employee" }
func (histView) HasAttribute(w, c, a string) bool {
	return a == "id" || a == "salary"
}
func (histView) Extent(w, c string) (stats.ExtentStats, bool) {
	return stats.ExtentStats{CountObject: 1000, TotalSize: 100000, ObjectSize: 100}, true
}
func (histView) Attribute(w, c, a string) (stats.AttributeStats, bool) {
	return stats.AttributeStats{Indexed: a == "id", CountDistinct: 1000,
		Min: types.Int(0), Max: types.Int(1000)}, true
}

func subplan() *algebra.Node {
	return algebra.Select(algebra.Scan("w1", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"}, stats.CmpEQ, types.Int(42)))
}

func resolveHist(t *testing.T, n *algebra.Node) *algebra.Node {
	t.Helper()
	schemas := algebra.FixedSchemas{"w1/Employee": types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	)}
	if err := algebra.Resolve(n, schemas); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRecordInjectsQueryRule(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	if err := rec.Record("w1", subplan(), 1234, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("Len = %d", rec.Len())
	}
	est := core.NewEstimator(reg, histView{}, core.UniformNet{})
	plan := resolveHist(t, algebra.Submit(subplan(), "w1"))
	pc, err := est.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Root.TotalTime(); got != 1234 {
		t.Errorf("historical estimate = %v, want 1234", got)
	}
	if got := pc.Root.Var("CountObject", -1); got != 50 {
		t.Errorf("historical cardinality = %v, want 50", got)
	}
	// A *different* subquery (other constant) must not match the
	// query-scope rule.
	other := resolveHist(t, algebra.Submit(
		algebra.Select(algebra.Scan("w1", "Employee"),
			algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"}, stats.CmpEQ, types.Int(99))),
		"w1"))
	pc2, err := est.Estimate(other)
	if err != nil {
		t.Fatal(err)
	}
	if pc2.Root.TotalTime() == 1234 {
		t.Error("query-scope rule leaked to a different subquery")
	}
}

func TestRecordAveragesRepetitions(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	if err := rec.Record("w1", subplan(), 1000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if err := rec.Record("w1", subplan(), 2000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("repetitions should share one entry, Len = %d", rec.Len())
	}
	v, ok := rec.Lookup("w1", subplan())
	if !ok || v.TotalTimeMS != 1500 || v.Samples != 2 {
		t.Errorf("vector = %+v, %v", v, ok)
	}
	// The injected rule was updated in place.
	est := core.NewEstimator(reg, histView{}, core.UniformNet{})
	plan := resolveHist(t, algebra.Submit(subplan(), "w1"))
	pc, err := est.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Root.TotalTime(); got != 1500 {
		t.Errorf("updated estimate = %v, want 1500", got)
	}
}

func TestRecordErrors(t *testing.T) {
	rec := NewRecorder(core.MustDefaultRegistry())
	if err := rec.Record("", subplan(), 1, 1, 1); err == nil {
		t.Error("empty wrapper should fail")
	}
	if err := rec.Record("w1", nil, 1, 1, 1); err == nil {
		t.Error("nil plan should fail")
	}
	if _, ok := rec.Lookup("w1", subplan()); ok {
		t.Error("lookup of unrecorded plan should miss")
	}
}

func TestSummary(t *testing.T) {
	rec := NewRecorder(core.MustDefaultRegistry())
	rec.Record("w1", subplan(), 500, 10, 100)
	s := rec.Summary()
	if !strings.Contains(s, "@w1") || !strings.Contains(s, "500.0 ms") {
		t.Errorf("summary = %q", s)
	}
}

// shape returns the i-th distinct subquery shape (the selection constant
// varies).
func shape(i int) *algebra.Node {
	return algebra.Select(algebra.Scan("w1", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"}, stats.CmpEQ, types.Int(int64(i))))
}

// estimateShape prices shape i behind its submit with a fresh estimator.
func estimateShape(t *testing.T, reg *core.Registry, i int) float64 {
	t.Helper()
	pc, err := core.NewEstimator(reg, histView{}, core.UniformNet{}).
		Estimate(resolveHist(t, algebra.Submit(shape(i), "w1")))
	if err != nil {
		t.Fatal(err)
	}
	return pc.Root.TotalTime()
}

// TestRecordCostFlat is the flat-history gate: recording a repeat
// observation costs the same allocations whether 100 or 10 000 shapes
// were recorded before it.
func TestRecordCostFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocsAfter := func(shapes int) float64 {
		rec := NewRecorder(core.MustDefaultRegistry())
		for i := 0; i < shapes; i++ {
			if err := rec.Record("w1", shape(i), 10, 5, 500); err != nil {
				t.Fatal(err)
			}
		}
		hot := shape(shapes - 1)
		return testing.AllocsPerRun(200, func() {
			if err := rec.Record("w1", hot, 10, 5, 500); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocsAfter(100), allocsAfter(10_000)
	t.Logf("allocations per repeat Record: %.0f after 100 shapes, %.0f after 10 000", few, many)
	if few != many {
		t.Errorf("repeat Record allocates %.0f times after 100 shapes but %.0f after 10 000", few, many)
	}
}

// TestRecorderBounded records 100 000 distinct shapes: the store and the
// registry's exact rules stay within the bound, a shape re-recorded
// every 100 calls is never evicted, and an evicted shape falls back to
// the blended model and starts a fresh mean when recorded again.
func TestRecorderBounded(t *testing.T) {
	reg := core.MustDefaultRegistry()
	base := reg.RuleCount()
	rec := NewRecorder(reg)
	const hot, cold = -1, -2
	model := estimateShape(t, reg, cold)
	if err := rec.Record("w1", shape(cold), 1000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if got := estimateShape(t, reg, cold); got != 1000 {
		t.Fatalf("recorded estimate = %v, want 1000", got)
	}
	const shapes = 100_000
	for i := 0; i < shapes; i++ {
		if i%100 == 0 {
			if err := rec.Record("w1", shape(hot), 7, 1, 100); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.Record("w1", shape(i), 10, 5, 500); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.Len(); n > maxShapes {
		t.Errorf("Len = %d after %d shapes, bound %d", n, shapes, maxShapes)
	}
	if n := reg.RuleCount() - base; n > maxShapes {
		t.Errorf("registry holds %d history rules after %d shapes, bound %d", n, shapes, maxShapes)
	}
	if v, ok := rec.Lookup("w1", shape(hot)); !ok || v.Samples != shapes/100 {
		t.Errorf("hot shape = %+v, %v; want %d samples, never evicted", v, ok, shapes/100)
	}
	if got := estimateShape(t, reg, hot); got != 7 {
		t.Errorf("hot shape estimate = %v, want its recorded 7", got)
	}

	if _, ok := rec.Lookup("w1", shape(cold)); ok {
		t.Fatal("the cold shape should have been evicted")
	}
	if got := estimateShape(t, reg, cold); got != model {
		t.Errorf("evicted shape estimate = %v, want the blended model's %v", got, model)
	}
	if err := rec.Record("w1", shape(cold), 20, 2, 200); err != nil {
		t.Fatal(err)
	}
	if v, ok := rec.Lookup("w1", shape(cold)); !ok || v.Samples != 1 || v.TotalTimeMS != 20 {
		t.Errorf("re-recorded evicted shape = %+v, %v; want a fresh mean of 20 over 1 sample", v, ok)
	}
}

// TestRecordAfterDropWrapper: re-registration drops the wrapper's rules,
// including the exact-plan history rules; the next observation re-adds
// the rule (ReplaceQueryRule misses, AddQueryRule files it), carrying the
// recorder's running mean.
func TestRecordAfterDropWrapper(t *testing.T) {
	reg := core.MustDefaultRegistry()
	base := reg.RuleCount()
	rec := NewRecorder(reg)
	model := estimateShape(t, reg, 42)
	if err := rec.Record("w1", shape(42), 1000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	reg.DropWrapper("w1")
	if got := reg.RuleCount(); got != base {
		t.Errorf("RuleCount after DropWrapper = %d, want %d", got, base)
	}
	if got := estimateShape(t, reg, 42); got != model {
		t.Errorf("estimate after DropWrapper = %v, want the model's %v", got, model)
	}
	if err := rec.Record("w1", shape(42), 2000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if got := reg.RuleCount(); got != base+1 {
		t.Errorf("RuleCount after re-recording = %d, want %d", got, base+1)
	}
	if got := estimateShape(t, reg, 42); got != 1500 {
		t.Errorf("estimate after re-recording = %v, want the running mean 1500", got)
	}
}

// TestConcurrentRecordEstimate runs recorders and estimators over the
// same shapes at once — more shapes than the bound, so evictions race
// estimations too. Run under -race (make ci-concurrency).
func TestConcurrentRecordEstimate(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	const shapes, workers = maxShapes + 200, 2
	// Plans are hashed before they are shared, as the mediator does for
	// every prepared plan.
	subplans := make([]*algebra.Node, shapes)
	for i := range subplans {
		subplans[i] = shape(i)
		subplans[i].StructuralHash()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := range subplans {
				if err := rec.Record("w1", subplans[(i+w*37)%shapes], float64(i%50+1), 5, 500); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		plans := make([]*algebra.Node, shapes)
		for i := range plans {
			plans[i] = resolveHist(t, algebra.Submit(shape(i), "w1"))
		}
		go func() {
			defer wg.Done()
			est := core.NewEstimator(reg, histView{}, core.UniformNet{})
			for _, p := range plans {
				if _, err := est.Estimate(p); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := rec.Len(); n != maxShapes {
		t.Errorf("Len = %d, want the bound %d", n, maxShapes)
	}
}
