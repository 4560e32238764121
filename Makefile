# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Packages whose concurrency the CI race job gates on (the parallel
# optimizer search, the mediator that drives it, the wrapper server's
# per-connection goroutines, and the shared virtual clock).
RACE_PKGS = ./internal/optimizer ./internal/mediator ./internal/wrapper ./internal/netsim

.PHONY: all build test race bench experiments fmt vet clean \
	ci ci-build ci-test ci-vet ci-fmt ci-lint ci-race ci-alloc ci-faultmatrix ci-feedback ci-fuzz ci-concurrency ci-perfbench ci-bench ci-exec ci-soak ci-resultcache ci-router ci-adaptive

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# `make bench` sweeps every benchmark. Setting PROFILE=<dir> additionally
# reruns the paper-scale root suite with CPU and heap profiles for
# `go tool pprof` (profiles are per-process, so the ./... sweep cannot
# write them itself); `go run ./cmd/experiments -cpuprofile/-memprofile`
# profiles a full evaluation run instead — see EXPERIMENTS.md.
bench:
	$(GO) test -bench=. -benchmem ./...
ifdef PROFILE
	mkdir -p $(PROFILE)
	$(GO) test -run '^$$' -bench . -benchmem \
		-cpuprofile $(PROFILE)/cpu.pprof -memprofile $(PROFILE)/mem.pprof \
		-o $(PROFILE)/bench.test .
endif

# Full paper-scale evaluation tables (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f bench.out exec.out soak.out soakexec.out rcoff.out rcon.out router1.out router2.out router4.out adaptoff.out adapton.out BENCH_pr.json BENCH_pr.json.tmp
	rm -rf .tools

# `make ci` runs exactly what .github/workflows/ci.yml runs; the workflow
# invokes these ci-* targets so the two cannot drift. Run it before
# pushing.
ci: ci-build ci-test ci-vet ci-fmt ci-lint ci-race ci-alloc ci-faultmatrix ci-feedback ci-fuzz ci-concurrency ci-perfbench ci-bench ci-exec ci-soak ci-resultcache ci-router ci-adaptive

# merge_bench folds one benchmark report into BENCH_pr.json:
# $(call merge_bench,report.out)
define merge_bench
	$(GO) run ./cmd/benchjson -merge BENCH_pr.json < $(1) > BENCH_pr.json.tmp
	mv BENCH_pr.json.tmp BENCH_pr.json
endef

# qps_of is the shell command printing the qps figure of one discoload
# report: $(call qps_of,report.out)
qps_of = awk '{for(i=1;i<NF;i++) if ($$(i+1)=="qps") print $$i}' $(1)

# qps_gate fails when the second run's qps falls more than 10% below the
# first's:
# $(call qps_gate,target,off.out,on.out,off-label,on-label,failure text)
define qps_gate
	@off=$$($(call qps_of,$(2))); \
	on=$$($(call qps_of,$(3))); \
	echo "$(1): qps $(4)=$$off $(5)=$$on"; \
	awk -v on="$$on" -v off="$$off" 'BEGIN { \
		if (on + 0 < off * 0.9) { print "$(1): $(6)"; exit 1 } }'
endef

ci-build:
	$(GO) build ./...

ci-test:
	$(GO) test ./...

ci-vet:
	$(GO) vet ./...

# Fails listing the offending files when anything is not gofmt-clean.
ci-fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis, pinned so CI results are reproducible. Prefers a
# staticcheck already on PATH; otherwise installs the pinned version
# into .tools (needs the module proxy). Offline environments skip
# loudly instead of failing — vet still gates in ci-vet.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1
ci-lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "ci-lint: using $$(command -v staticcheck)"; \
		staticcheck ./...; \
	elif GOBIN=$(CURDIR)/.tools $(GO) install $(STATICCHECK) 2>/dev/null; then \
		$(CURDIR)/.tools/staticcheck ./...; \
	else \
		echo "ci-lint: staticcheck not on PATH and $(STATICCHECK) not installable (offline?) — SKIPPED"; \
	fi

ci-race:
	$(GO) test -race $(RACE_PKGS)

# Steady-state allocation gates (testing.AllocsPerRun): pricing a warm
# plan through EstimateRoot must not allocate at all, and memo probes
# must stay allocation-free. Run without -race — the detector changes
# allocation behaviour, so the tests skip themselves under it.
ci-alloc:
	$(GO) test -run 'Alloc' -count=1 ./internal/core ./internal/optimizer

# The fault matrix under the race detector: every injected failure mode
# (drop, transient error, delay, permanent outage) must recover or
# degrade to a partial answer — never hang, panic, or corrupt state.
ci-faultmatrix:
	$(GO) test -race -run 'Fault|Remote|Injector|Resilience' ./internal/mediator ./internal/wrapper ./internal/netsim ./internal/experiments

# The self-tuning convergence gate: extents mis-registered 10x must be
# repaired by running the workload — the median cardinality q-error drops
# at least 5x, the probe join order flips to the truth plan, and the
# feedback-off control stays bit-identical.
ci-feedback:
	$(GO) test -run 'TestFeedbackConvergence' -count=1 -v ./internal/experiments

# 30-second native-fuzzer smokes: the cost-language parser, the fault-spec
# parser (accepted specs must render/re-parse to the same plan), the
# wire-protocol frame decoder (arbitrary bytes must never panic a reader),
# and the feedback snapshot store (corrupt snapshots load as empty).
ci-fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/costlang
	$(GO) test -fuzz=FuzzParseFaultSpec -fuzztime=30s ./internal/netsim
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/proto
	$(GO) test -fuzz=FuzzFeedbackSnapshot -fuzztime=30s ./internal/feedback

# Race-stress for the concurrent serving path (DESIGN.md §9): the mixed
# query/registration/fault suite, the plan-cache and admission tests, the
# feedback save debounce, and the server's connection handling and
# graceful shutdown, repeated under the race detector so interleavings
# vary between runs.
ci-concurrency:
	$(GO) test -race -count=3 \
		-run 'Concurrent|Race|Admission|PlanCache|Reprepare|StalePlan|Debounce|IdleTimeout|Overloaded|NormalizeSQL|Shutdown|StatsOp|ReregisterOp|SetLinkOp' \
		./internal/mediator ./internal/feedback ./internal/serving

# The repository benchmark's own tests (perfbench/ is a separate module,
# so the root `go test ./...` does not reach it). Compiling it also
# catches any change that breaks the API the benchmark drives.
ci-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -race -count=1 ./...

# One iteration of every benchmark, archived as JSON for cross-commit
# comparison (CI uploads BENCH_pr.json as an artifact).
ci-bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . | tee bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_pr.json

# The vectorized-execution gate (DESIGN.md §12, EXPERIMENTS.md E13):
# the vexec/engine suites (bit-identity, spill properties, morsel
# parallelism) under the race detector, the single-thread throughput
# gate (the batch pipeline must move rows >= 3x faster than the
# materializing baseline), the steady-state allocation gate (~0
# allocations per batch once the pool is warm), the morsel-parallel
# spilling chaos soak with its digest oracle, and finally one iteration
# of every exec benchmark — BenchmarkExecPipeline's rows/sec lands in
# BENCH_pr.json as rows_per_sec, next to the workers=2/4/8 scaling
# series and the spill-budget crossover.
ci-exec:
	$(GO) test -race -count=1 ./internal/vexec ./internal/engine
	$(GO) test -count=1 -run 'TestExecPipelineSpeedup|TestExecSteadyStateAllocs' -v ./internal/vexec
	$(GO) test -race -count=1 -timeout 600s -run 'TestSoakExecParallel' ./cmd/discoload
	$(GO) test -run '^$$' -bench 'BenchmarkExec|BenchmarkSort' -benchmem -benchtime 1x \
		./internal/vexec ./internal/rowops | tee exec.out
	$(call merge_bench,exec.out)
	rm -f exec.out

# The workload-scale soak gate (EXPERIMENTS.md E11): the fixed-seed
# 256-client mixed workload under the race detector — zero wedged
# connections, zero oracle mismatches, p99 under a generous liveness
# bound — then paired discoload runs with the morsel-parallel engine off
# and on, both merged into BENCH_pr.json next to the optimizer
# benchmarks. The qps comparison gates at a 10% tolerance: turning the
# vectorized engine's workers on must not make serving slower.
ci-soak:
	$(GO) test -race -count=1 -timeout 600s -run 'TestSoak$$' ./cmd/discoload
	$(GO) run ./cmd/discoload -demo -parts 2000 -clients 64 -requests 40 -seed 7 \
		-bench DiscoloadDemoSoak > soak.out
	$(GO) run ./cmd/discoload -demo -parts 2000 -clients 64 -requests 40 -seed 7 \
		-exec-workers 4 -bench DiscoloadDemoSoakExecOn > soakexec.out
	$(call merge_bench,soak.out)
	$(call merge_bench,soakexec.out)
	$(call qps_gate,ci-soak,soak.out,soakexec.out,exec-off,exec-on,exec-workers-on qps regressed vs off)
	rm -f soak.out soakexec.out

# The semantic-result-cache gate (DESIGN.md §11, EXPERIMENTS.md E12):
# the cache-correctness suite under the race detector (unit invariants,
# plan/result-cache accounting, partial-answer leak guards, histogram
# oracle properties), the cache-enabled chaos soak, then paired
# cache-off/cache-on discoload runs merged into BENCH_pr.json. The qps
# comparison gates at a 10% tolerance: with a zipf-hot workload the
# cache must not make serving slower (it is expected to make it faster).
ci-resultcache:
	$(GO) test -race -count=2 \
		-run 'ResultCache|NormalizeSQL|PlanCacheStale|Hist' \
		./internal/resultcache ./internal/mediator ./internal/optimizer ./internal/loadgen
	$(GO) test -race -count=1 -timeout 600s -run 'TestSoakResultCache' ./cmd/discoload
	$(GO) run ./cmd/discoload -demo -parts 2000 -clients 64 -requests 40 -seed 7 \
		-bench DiscoloadDemoSoakCacheOff > rcoff.out
	$(GO) run ./cmd/discoload -demo -parts 2000 -clients 64 -requests 40 -seed 7 \
		-result-cache -bench DiscoloadDemoSoakCacheOn > rcon.out
	$(call merge_bench,rcoff.out)
	$(call merge_bench,rcon.out)
	$(call qps_gate,ci-resultcache,rcoff.out,rcon.out,cache-off,cache-on,cache-on qps regressed vs cache-off)
	rm -f rcoff.out rcon.out

# The federation-router gate (DESIGN.md §13, EXPERIMENTS.md E14): the
# router suite under the race detector — ring distribution/minimal-
# movement properties, the pinned cost-bias test (a deliberately slowed
# replica must lose ring weight and routed share), gossip warm-through,
# scatter-gather digest identity against a single-mediator oracle — then
# the multi-replica chaos soak (a replica killed and restarted mid-run:
# zero wedged clients, zero oracle mismatches), and finally the E14
# scale-out sweep: discoload at 1, 2 and 4 replicas, all three merged
# into BENCH_pr.json. The >=1.7x qps gate (4 replicas vs 1) only
# enforces on hosts with >=4 CPUs — with fewer cores the replicas share
# the same silicon and scale-out cannot show (EXPERIMENTS.md E14 caveat);
# the sweep is still recorded.
ci-router:
	$(GO) test -race -count=1 ./internal/router
	$(GO) test -race -count=1 -timeout 600s -run 'TestSoakRouter' ./cmd/discoload
	$(GO) run ./cmd/discoload -demo -replicas 1 -parts 2000 -clients 64 -requests 40 -seed 7 \
		-bench DiscoloadRouterReplicas1 > router1.out
	$(GO) run ./cmd/discoload -demo -replicas 2 -parts 2000 -clients 64 -requests 40 -seed 7 \
		-bench DiscoloadRouterReplicas2 > router2.out
	$(GO) run ./cmd/discoload -demo -replicas 4 -parts 2000 -clients 64 -requests 40 -seed 7 \
		-bench DiscoloadRouterReplicas4 > router4.out
	$(call merge_bench,router1.out)
	$(call merge_bench,router2.out)
	$(call merge_bench,router4.out)
	@one=$$($(call qps_of,router1.out)); \
	four=$$($(call qps_of,router4.out)); \
	ncpu=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1); \
	echo "ci-router: qps replicas=1 $$one, replicas=4 $$four (cpus=$$ncpu)"; \
	if [ "$$ncpu" -ge 4 ]; then \
		awk -v one="$$one" -v four="$$four" 'BEGIN { \
			if (four + 0 < one * 1.7) { print "ci-router: 4-replica qps below 1.7x the single-replica baseline"; exit 1 } }'; \
	else \
		echo "ci-router: <4 CPUs — scale-out ratio recorded, not gated (EXPERIMENTS.md E14)"; \
	fi
	rm -f router1.out router2.out router4.out

# The adaptive re-optimization gate (DESIGN.md §14, EXPERIMENTS.md E15):
# the Adaptive=false bit-identity regression under the race detector at
# serial and morsel-parallel execution, the E15 convergence gate (a
# mis-registered federation must switch to the truth plan inside the
# first query and beat the static run), then paired adaptive-off/on
# discoload runs merged into BENCH_pr.json. The qps comparison gates at
# a 10% tolerance: on a well-registered federation the divergence checks
# never fire, so turning them on must not make serving slower.
ci-adaptive:
	$(GO) test -race -count=1 -run 'Adaptive' ./internal/mediator ./internal/engine ./internal/optimizer
	$(GO) test -run 'TestAdaptiveConvergence' -count=1 -v ./internal/experiments
	$(GO) run ./cmd/discoload -demo -parts 2000 -clients 64 -requests 40 -seed 7 \
		-bench DiscoloadDemoSoakAdaptiveOff > adaptoff.out
	$(GO) run ./cmd/discoload -demo -parts 2000 -clients 64 -requests 40 -seed 7 \
		-adaptive -bench DiscoloadDemoSoakAdaptiveOn > adapton.out
	$(call merge_bench,adaptoff.out)
	$(call merge_bench,adapton.out)
	$(call qps_gate,ci-adaptive,adaptoff.out,adapton.out,adaptive-off,adaptive-on,adaptive-on qps regressed vs off)
	rm -f adaptoff.out adapton.out
