package engine

import (
	"fmt"
	"reflect"
	"testing"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/rowops"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// legacyExec is a faithful reimplementation of the engine's
// pre-vectorization row-at-a-time executor (materializing rowops calls
// with inline clock charges). The identity tests run it against
// Engine.Execute on identical fresh deployments: rows must match bit for
// bit and the virtual elapsed time must agree to float round-off.
func legacyExec(e *Engine, n *algebra.Node) ([]types.Row, error) {
	if n.OutSchema == nil {
		return nil, fmt.Errorf("legacy: unresolved plan node %s", n.Kind)
	}
	switch n.Kind {
	case algebra.OpSubmit:
		w, ok := e.wrappers[n.Wrapper]
		if !ok {
			return nil, fmt.Errorf("legacy: unknown wrapper %q", n.Wrapper)
		}
		res, err := w.Execute(n.Children[0])
		if err != nil {
			return nil, err
		}
		if e.net != nil {
			e.net.Ship(n.Wrapper, res.Bytes)
		}
		return res.Rows, nil
	case algebra.OpSelect:
		rows, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		e.clock.Advance(float64(len(rows)) * e.costs.PerPred)
		return rowops.Filter(n.OutSchema, rows, n.Pred), nil
	case algebra.OpProject:
		rows, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		e.clock.Advance(float64(len(rows)) * e.costs.ProjPerObj)
		return rowops.Project(n.Children[0].OutSchema, rows, n.Cols)
	case algebra.OpSort:
		rows, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		e.clock.Advance(nLogN(len(rows)) * e.costs.SortPerObj)
		return rowops.Sort(n.OutSchema, rows, n.Keys)
	case algebra.OpDupElim:
		rows, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		e.clock.Advance(float64(len(rows)) * e.costs.HashPerObj)
		return rowops.DupElim(rows), nil
	case algebra.OpAggregate:
		rows, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		e.clock.Advance(float64(len(rows)) * e.costs.HashPerObj)
		out, err := rowops.Aggregate(n.Children[0].OutSchema, rows, n.GroupBy, n.Aggs)
		if err != nil {
			return nil, err
		}
		e.clock.Advance(float64(len(out)) * e.costs.PerObj)
		return out, nil
	case algebra.OpUnion:
		left, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := legacyExec(e, n.Children[1])
		if err != nil {
			return nil, err
		}
		out := rowops.Union(left, right)
		e.clock.Advance(float64(len(out)) * e.costs.PerObj)
		return out, nil
	case algebra.OpJoin:
		left, err := legacyExec(e, n.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := legacyExec(e, n.Children[1])
		if err != nil {
			return nil, err
		}
		ls, rs := n.Children[0].OutSchema, n.Children[1].OutSchema
		if out, ok := rowops.HashJoin(ls, rs, n.OutSchema, left, right, n.Pred, nil); ok {
			e.clock.Advance(float64(len(left)+len(right)) * e.costs.HashPerObj)
			e.clock.Advance(float64(len(out)) * e.costs.PerObj)
			return out, nil
		}
		out := rowops.NestedLoopJoin(n.OutSchema, left, right, n.Pred, nil)
		e.clock.Advance(float64(len(left)*len(right)) * e.costs.JoinPerPair)
		return out, nil
	default:
		return nil, fmt.Errorf("legacy: cannot execute operator %s", n.Kind)
	}
}

// identityPlans are the plan shapes the equivalence tests cover — every
// mediator operator over real wrapper submits.
func identityPlans(t *testing.T, d *deployment) map[string]*algebra.Node {
	t.Helper()
	subEmp := func() *algebra.Node { return algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1") }
	subDept := func() *algebra.Node { return algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1") }
	empDept := algebra.Ref{Collection: "Employee", Attr: "dept"}
	deptDno := algebra.Ref{Collection: "Dept", Attr: "dno"}
	thetaPred := &algebra.Predicate{Conjuncts: []algebra.Comparison{{
		Left: empDept, Op: stats.CmpLT, RightAttr: &deptDno}}}
	plans := map[string]*algebra.Node{
		"joinProject": algebra.Project(
			algebra.Join(subEmp(), subDept(), algebra.NewJoinPred(empDept, deptDno)),
			"Employee.name", "Dept.dname"),
		"sortAggSelect": algebra.Sort(
			algebra.Aggregate(
				algebra.Select(subEmp(), algebra.NewSelPred(algebra.Ref{Attr: "dept"}, stats.CmpLT, types.Int(5))),
				[]algebra.Ref{empDept},
				[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}),
			algebra.SortKey{Attr: algebra.Ref{Attr: "dept"}, Desc: true}),
		"unionDupElim": algebra.DupElim(algebra.Union(
			algebra.Submit(algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(10))), "obj1"),
			algebra.Submit(algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(5))), "obj1"))),
		"thetaJoin": algebra.Join(subEmp(), subDept(), thetaPred),
	}
	for name, p := range plans {
		if err := algebra.Resolve(p, d.cat); err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
	}
	return plans
}

// TestVectorizedMatchesLegacy: the vectorized engine at Workers<=1 with
// no spill budget must reproduce the row-at-a-time executor bit for bit
// — rows, order, and virtual elapsed time (to float round-off from
// charge-summation order).
func TestVectorizedMatchesLegacy(t *testing.T) {
	for name := range identityPlans(t, buildDeployment(t)) {
		t.Run(name, func(t *testing.T) {
			dLegacy := buildDeployment(t)
			legacyPlan := identityPlans(t, dLegacy)[name]
			watch := netsim.StartWatch(dLegacy.clock)
			wantRows, err := legacyExec(dLegacy.engine, legacyPlan)
			if err != nil {
				t.Fatal(err)
			}
			wantMS := watch.ElapsedMS()

			dNew := buildDeployment(t)
			res, err := dNew.engine.Execute(identityPlans(t, dNew)[name], Run{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantRows, res.Rows) {
				if len(wantRows) != len(res.Rows) {
					t.Fatalf("rows = %d, legacy %d", len(res.Rows), len(wantRows))
				}
				for i := range wantRows {
					if !reflect.DeepEqual(wantRows[i], res.Rows[i]) {
						t.Fatalf("row %d = %s, legacy %s", i, res.Rows[i], wantRows[i])
					}
				}
			}
			if diff := res.ElapsedMS - wantMS; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("elapsed = %v, legacy %v", res.ElapsedMS, wantMS)
			}
		})
	}
}

// TestParallelWorkersPreserveRows: Workers>1 keeps the answer
// bit-identical while the simulated breaker time shrinks by
// MorselSpeedup.
func TestParallelWorkersPreserveRows(t *testing.T) {
	for name := range identityPlans(t, buildDeployment(t)) {
		t.Run(name, func(t *testing.T) {
			dSeq := buildDeployment(t)
			seq, err := dSeq.engine.Execute(identityPlans(t, dSeq)[name], Run{})
			if err != nil {
				t.Fatal(err)
			}
			dPar := buildDeployment(t)
			dPar.engine.Exec = vexec.Options{Workers: 4}
			par, err := dPar.engine.Execute(identityPlans(t, dPar)[name], Run{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Rows, par.Rows) {
				t.Fatalf("parallel rows diverge from sequential (%d vs %d rows)", len(par.Rows), len(seq.Rows))
			}
			if par.ElapsedMS > seq.ElapsedMS+1e-9 {
				t.Fatalf("parallel elapsed %v exceeds sequential %v", par.ElapsedMS, seq.ElapsedMS)
			}
		})
	}
}

// TestMorselSpeedupFactor pins the simulated scaling model.
func TestMorselSpeedupFactor(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if got := MorselSpeedup(w); got != 1 {
			t.Errorf("MorselSpeedup(%d) = %v, want 1", w, got)
		}
	}
	for _, w := range []int{2, 4, 8} {
		want := 1 + 0.7*float64(w-1)
		if got := MorselSpeedup(w); got != want {
			t.Errorf("MorselSpeedup(%d) = %v, want %v", w, got, want)
		}
	}
}

// TestSpilledExecutionDegradesGracefully: a tiny memory budget forces
// mediator-side joins to spill; the answer must stay multiset-identical
// (here: identical after sorting, since the join output is unique rows).
func TestSpilledExecutionDegradesGracefully(t *testing.T) {
	dSeq := buildDeployment(t)
	seqRes, err := dSeq.engine.Execute(identityPlans(t, dSeq)["joinProject"], Run{})
	if err != nil {
		t.Fatal(err)
	}
	dSp := buildDeployment(t)
	dSp.engine.Exec = vexec.Options{MemBytes: 1 << 10, SpillDir: t.TempDir()}
	spRes, err := dSp.engine.Execute(identityPlans(t, dSp)["joinProject"], Run{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Rows) != len(spRes.Rows) {
		t.Fatalf("spilled rows = %d, in-memory %d", len(spRes.Rows), len(seqRes.Rows))
	}
	seen := make(map[string]int)
	for _, r := range seqRes.Rows {
		seen[r.Key()]++
	}
	for _, r := range spRes.Rows {
		seen[r.Key()]--
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("multiset mismatch at key %q (%+d)", k, c)
		}
	}
}
