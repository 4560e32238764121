package history

import (
	"strings"
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
