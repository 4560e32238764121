package vexec_test

import (
	"fmt"
	"runtime"
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// The pipeline benchmarks and their CI gates (`make ci-exec`). The
// headline metric is rows/sec — source rows pushed through a
// representative select → hash-join → aggregate pipeline per wall-clock
// second — reported via b.ReportMetric so cmd/benchjson promotes it
// into BENCH_pr.json (rows_per_sec).

// benchParts is the source cardinality of the benchmark pipeline. Large
// enough that per-batch costs dominate per-query setup, small enough
// that -benchtime 1x stays fast in CI.
const benchParts = 100_000

// benchPipeline builds the benchmark plan over a seeded catalog:
//
//	agg(region; count, sum(weight)) ⋈ (σ weight>10 (parts) ⨝ suppliers)
//
// — a selective filter feeding a hash join feeding a grouped aggregate,
// the operator mix the mediator's own plans are made of.
func benchPipeline(tb testing.TB, nParts int) (testCatalog, *algebra.Node) {
	tb.Helper()
	cat := makeCatalog(nParts, 200, 7)
	plan := algebra.Aggregate(
		algebra.Join(
			algebra.Select(algebra.Scan("src", "parts"),
				algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(10))),
			algebra.Scan("src", "suppliers"),
			algebra.NewJoinPred(ref("parts", "supplier"), ref("suppliers", "sid"))),
		[]algebra.Ref{ref("suppliers", "region")},
		[]algebra.AggSpec{
			{Func: algebra.AggCount, Star: true},
			{Func: algebra.AggSum, Attr: ref("parts", "weight")},
		})
	if err := algebra.Resolve(plan, cat); err != nil {
		tb.Fatalf("resolve: %v", err)
	}
	return cat, plan
}

// BenchmarkExecPipeline measures the vectorized engine over the
// benchmark pipeline. The workers=1 case is the single-thread number the
// ci-exec gate compares against BenchmarkExecMaterializing (>= 3x);
// higher worker counts show morsel scaling inside the breakers.
func BenchmarkExecPipeline(b *testing.B) {
	cat, plan := benchPipeline(b, benchParts)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := vexec.Options{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := vexec.Run(plan, &vexec.Env{Opts: opts, Leaf: cat.scanLeaf})
				if err != nil || len(out) == 0 {
					b.Fatalf("run: %v (%d rows)", err, len(out))
				}
			}
			b.ReportMetric(float64(benchParts)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkExecMaterializing is the pre-refactor baseline: the same plan
// through the materializing row-at-a-time reference operators (one fully
// materialized intermediate per operator, per-row predicate evaluation
// with name resolution). Kept as the yardstick for the pipeline's win.
func BenchmarkExecMaterializing(b *testing.B) {
	cat, plan := benchPipeline(b, benchParts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := refEval(plan, cat.scanLeaf)
		if err != nil || len(out) == 0 {
			b.Fatalf("run: %v (%d rows)", err, len(out))
		}
	}
	b.ReportMetric(float64(benchParts)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkExecSpill measures the spill crossover: the same pipeline
// under shrinking breaker memory budgets (0 = all in memory). The
// rows/sec drop from budget=0 to the smallest budget is the price of
// Grace partitioning; EXPERIMENTS.md E13 tracks it.
func BenchmarkExecSpill(b *testing.B) {
	cat, plan := benchPipeline(b, benchParts)
	for _, budget := range []int64{0, 1 << 20, 1 << 16} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			opts := vexec.Options{MemBytes: budget, SpillDir: b.TempDir()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := vexec.Run(plan, &vexec.Env{Opts: opts, Leaf: cat.scanLeaf})
				if err != nil || len(out) == 0 {
					b.Fatalf("run: %v (%d rows)", err, len(out))
				}
			}
			b.ReportMetric(float64(benchParts)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// TestExecPipelineSpeedup is the ci-exec throughput gate: the
// single-thread vectorized pipeline must move rows at least 3x faster
// than the materializing baseline on the benchmark plan. Both sides run
// through testing.Benchmark in the same process, so machine noise
// cancels out of the ratio.
func TestExecPipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput gate is not a -short test")
	}
	if raceEnabled {
		t.Skip("throughput ratios are not meaningful under the race detector")
	}
	cat, plan := benchPipeline(t, benchParts)

	vec := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vexec.Run(plan, &vexec.Env{Leaf: cat.scanLeaf}); err != nil {
				b.Fatal(err)
			}
		}
	})
	mat := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := refEval(plan, cat.scanLeaf); err != nil {
				b.Fatal(err)
			}
		}
	})
	speedup := float64(mat.NsPerOp()) / float64(vec.NsPerOp())
	t.Logf("vectorized %v/op, materializing %v/op: %.2fx", vec.NsPerOp(), mat.NsPerOp(), speedup)
	if speedup < 3 {
		t.Errorf("single-thread speedup %.2fx below the 3x gate", speedup)
	}
}

// TestExecSteadyStateAllocs is the ci-exec allocation gate: once the
// batch pool is warm, pulling batches through a filter pipeline must not
// allocate per batch — only the constant per-query build cost (operator
// structs, compiled predicate) remains. The budget is a hard ceiling:
// ~0 allocations per batch on a ~98-batch input.
func TestExecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := makeCatalog(benchParts, 200, 7)
	plan := algebra.Select(algebra.Scan("src", "parts"),
		algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(30)))
	if err := algebra.Resolve(plan, cat); err != nil {
		t.Fatal(err)
	}
	batches := benchParts / vexec.DefaultBatchSize

	run := func() {
		op, err := vexec.Build(plan, &vexec.Env{Leaf: cat.scanLeaf})
		if err != nil {
			t.Fatal(err)
		}
		// Drain by hand without accumulating output, so the measurement
		// sees only the pipeline's own allocations.
		if err := vexec.Discard(op, vexec.DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the batch pool
	avg := testing.AllocsPerRun(10, run)
	perBatch := avg / float64(batches)
	t.Logf("allocs/run = %.1f over %d batches (%.3f per batch)", avg, batches, perBatch)
	if perBatch > 0.5 {
		t.Errorf("%.3f allocations per batch; steady state must stay ~0 (total %.1f)", perBatch, avg)
	}
}

// TestSmallQueryAllocBytes is the ci-alloc gate for the row arena: a
// serving-sized query (a project over a join, under ten rows out) must
// not pay for full-size arena slabs. Each arena-using operator starts
// with a small slab and only grows it as rows arrive, so the whole run
// stays under 64 KiB; a fixed 16384-constant slab per operator alone
// would be 768 KiB.
func TestSmallQueryAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	cat := makeCatalog(8, 4, 7)
	plan := algebra.Project(
		algebra.Join(algebra.Scan("src", "parts"), algebra.Scan("src", "suppliers"),
			algebra.NewJoinPred(ref("parts", "supplier"), ref("suppliers", "sid"))),
		"parts.id", "region")
	if err := algebra.Resolve(plan, cat); err != nil {
		t.Fatal(err)
	}
	run := func() []types.Row {
		out, err := vexec.Run(plan, &vexec.Env{Leaf: cat.scanLeaf})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if n := len(run()); n == 0 || n > 10 {
		t.Fatalf("pipeline produced %d rows, want 1..10", n)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per run", perRun)
	if perRun > 64<<10 {
		t.Errorf("a small project/join query allocates %d bytes per run, budget 64 KiB", perRun)
	}
}
