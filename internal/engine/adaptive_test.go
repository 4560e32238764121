package engine

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/types"
)

// TestAdaptiveNextStageOrder pins the staging discipline of the adaptive
// executor: boundaries surface in post-order — submit leaves first, then
// a breaker once every boundary beneath it is materialized — and a fully
// materialized interior leaves only the final stage (nil).
func TestAdaptiveNextStageOrder(t *testing.T) {
	subA := &algebra.Node{Kind: algebra.OpSubmit}
	subB := &algebra.Node{Kind: algebra.OpSubmit}
	union := &algebra.Node{Kind: algebra.OpUnion, Children: []*algebra.Node{subA, subB}}
	sorted := &algebra.Node{Kind: algebra.OpSort, Children: []*algebra.Node{union}}
	root := &algebra.Node{Kind: algebra.OpProject, Children: []*algebra.Node{sorted}}

	mat := map[*algebra.Node][]types.Row{}
	want := []*algebra.Node{subA, subB, sorted}
	for i, w := range want {
		got := nextStage(root, mat)
		if got != w {
			t.Fatalf("stage %d: got %s, want %s", i, got.Kind, w.Kind)
		}
		mat[got] = nil
	}
	// The union and project are pipeline work, not boundaries: with every
	// boundary materialized, what remains is the single final stage.
	if s := nextStage(root, mat); s != nil {
		t.Fatalf("after all boundaries materialized, nextStage = %s, want nil", s.Kind)
	}
	// A materialized node contributes no further stages.
	mat[root] = nil
	if s := nextStage(root, mat); s != nil {
		t.Fatalf("materialized root still staged %s", s.Kind)
	}
}

// TestAdaptiveNextStageSubmitRoot: a plan that is one submit is its own
// first boundary; the staging loop stops on stage == cur and Execute
// runs it as the final stage.
func TestAdaptiveNextStageSubmitRoot(t *testing.T) {
	sub := &algebra.Node{Kind: algebra.OpSubmit}
	if got := nextStage(sub, map[*algebra.Node][]types.Row{}); got != sub {
		t.Fatalf("submit root staged %v, want itself", got)
	}
}
