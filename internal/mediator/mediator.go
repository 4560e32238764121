// Package mediator assembles the full DISCO system of the paper: the
// registration phase (Figure 1 — wrappers upload schema, capabilities,
// statistics and cost rules into the catalog and the cost-model registry)
// and the query phase (Figure 2 — parse the declarative query, bind it
// against the catalog, optimize it with the blending cost model, execute
// it across the wrappers, and compose the answer).
package mediator

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/engine"
	"disco/internal/feedback"
	"disco/internal/history"
	"disco/internal/netsim"
	"disco/internal/optimizer"
	"disco/internal/resultcache"
	"disco/internal/sqlparser"
	"disco/internal/types"
	"disco/internal/vexec"
	"disco/internal/wrapper"
)

// ErrStalePlan is returned by ExecutePlan when a prepared plan's catalog
// epoch no longer matches the federation and the plan carries no SQL
// text to re-prepare from.
var ErrStalePlan = errors.New("mediator: prepared plan is stale (federation changed since Prepare) and carries no SQL to re-prepare")

// Config sets up a mediator deployment.
type Config struct {
	// Clock is the shared virtual clock; nil allocates one. Every
	// registered wrapper must run on this clock.
	Clock *netsim.Clock
	// Net is the communication model; nil installs a default uniform
	// link (10 ms latency, 2 MB/s).
	Net *netsim.Network
	// EngineCosts are the mediator-side per-row costs; zero value uses
	// engine.DefaultCosts.
	EngineCosts engine.Costs
	// RecordHistory enables the §4.3.1 query-scope recorder.
	RecordHistory bool
	// UseWrapperRules controls whether registration integrates exported
	// cost rules (disabling it yields the generic-model-only baseline of
	// experiment E3).
	UseWrapperRules bool
	// Feedback enables the execution-feedback loop (DESIGN.md §8): every
	// executed query's per-operator actuals are joined against the
	// optimizer's predictions, per-scope q-error accumulators update, and
	// the adjuster refines catalog statistics and calibrated coefficients
	// toward the observations. Off by default: with feedback disabled the
	// mediator's plans and estimates are bit-identical to a build without
	// the subsystem.
	Feedback bool
	// FeedbackStore, when set with Feedback, persists learned corrections
	// across restarts (the snapshot loads at construction; saves are
	// debounced — see FeedbackSaveInterval — and flushed by Close).
	FeedbackStore feedback.Store
	// FeedbackSaveInterval debounces snapshot persistence: absorbed
	// executions inside the window coalesce into one deferred save,
	// written by the first absorption past the window or by Close. Zero
	// uses feedback.DefaultSaveInterval; negative saves after every
	// execution (the pre-debounce behaviour).
	FeedbackSaveInterval time.Duration
	// PlanCacheSize bounds the prepared-plan cache in entries. Zero uses
	// DefaultPlanCacheSize; negative disables caching. A cached plan is
	// live only while both model generations it was planned under still
	// match: any registration, wrapper outage or feedback correction
	// retires it (DESIGN.md §9).
	PlanCacheSize int
	// ResultCache configures the semantic result cache
	// (internal/resultcache): materialized row sets keyed by the 128-bit
	// structural plan hash, served for whole plans and at submit
	// boundaries, and priced by the optimizer as a ScopeCache access
	// path. Off by default (the zero value); a disabled cache leaves
	// chosen plans and results bit-identical to a build without the
	// subsystem. An entry is live only while the data generation it was
	// computed under still matches: registrations, wrapper outage marks
	// and catalog-touching feedback corrections retire it, coefficient-
	// only refits do not (DESIGN.md §11). Result.Partial answers are
	// never admitted.
	ResultCache resultcache.Config
	// MaxInFlight caps concurrently admitted queries (Query, ExecutePlan,
	// Explain, ExplainAnalyze). Zero means unlimited. Excess callers
	// queue for AdmissionTimeout and are then shed with ErrOverloaded.
	MaxInFlight int
	// AdmissionTimeout bounds the admission queue wait. Zero waits
	// indefinitely (no shedding); negative sheds immediately when
	// MaxInFlight queries are in flight.
	AdmissionTimeout time.Duration
	// OptimizerOptions tune the plan search.
	OptimizerOptions optimizer.Options
	// ExecWorkers is the morsel-driven parallelism inside the engine's
	// pipeline breakers (sort, hash join, aggregation, dup-elim). Values
	// below 2 run sequentially — the mode whose results and simulated
	// times are bit-identical to the pre-vectorization engine. With
	// workers, the Med* cost-model coefficients are divided by
	// engine.MorselSpeedup(ExecWorkers) so estimates track the faster
	// simulated breaker execution.
	ExecWorkers int
	// ExecMemBytes bounds the memory a mediator-side hash join build or
	// aggregation input may hold before Grace-spilling to disk. Zero
	// disables spilling.
	ExecMemBytes int64
	// ExecSpillDir is where spill partitions are written ("" uses the
	// OS temp dir).
	ExecSpillDir string
	// Adaptive enables mid-flight adaptive re-optimization (DESIGN.md
	// §14) by wiring the engine's Replan hook: Execute then pauses at
	// materialization boundaries — submit leaves and pipeline breakers —
	// compares observed cardinalities against the optimizer's
	// predictions, and past the q-error threshold re-costs the remaining
	// plan with the materialized subtrees pinned as exact zero-cost
	// leaves, switching (at most engine.DefaultAdaptiveMaxSwitches times)
	// when the candidate wins by the hysteresis margin. Off by default:
	// with no Replan the same driver runs the whole plan as one stage,
	// bit-identical to a build without the subsystem.
	Adaptive bool
	// AdaptiveThreshold is the cardinality q-error that triggers a
	// re-cost (0 uses engine.DefaultAdaptiveThreshold).
	AdaptiveThreshold float64
	// AdaptiveMargin is the fraction a re-costed plan must win by before
	// the engine switches (0 uses engine.DefaultAdaptiveMargin).
	AdaptiveMargin float64
}

// DefaultConfig enables wrapper rules and history with default search
// options.
func DefaultConfig() Config {
	return Config{
		RecordHistory:    true,
		UseWrapperRules:  true,
		OptimizerOptions: optimizer.DefaultOptions(),
	}
}

// Mediator is one running mediator instance. It is safe for concurrent
// use: queries, explains and plan executions run in parallel under a
// read lock, while (re-)registration and feedback absorption take the
// write lock and drain in-flight queries first.
//
// Lock order (outermost first): mu → downMu → inner package locks
// (registry, recorder, adjuster, cache, buffer pools). The down-marks
// live under their own mutex because sources fail DURING read-locked
// execution — the engine's outage callback cannot upgrade to the write
// lock without deadlocking behind its own read hold.
type Mediator struct {
	cfg Config

	// mu is the serving lock. Read side: Prepare, Query, ExecutePlan,
	// Explain, ExplainAnalyze, accessors. Write side: Register, feedback
	// absorption, Close.
	mu sync.RWMutex
	// downMu guards unavailable; see the lock-order note above.
	downMu sync.Mutex

	Clock    *netsim.Clock
	Net      *netsim.Network
	Catalog  *catalog.Catalog
	Registry *core.Registry
	// Estimator is the template estimator holding the calibrated globals
	// and default options; every prepare clones it, so concurrent
	// searches never share scratch state. Mutate it only while no
	// queries are in flight (calibration, setup).
	Estimator *core.Estimator
	// Optimizer is a convenience instance over the template estimator
	// for tools and tests; the serving path builds a per-call optimizer
	// from a clone instead.
	Optimizer *optimizer.Optimizer
	Engine    *engine.Engine
	History   *history.Recorder
	// Feedback and Adjuster are the execution-feedback loop (nil unless
	// Config.Feedback).
	Feedback *feedback.Recorder
	Adjuster *feedback.Adjuster
	// LastReport is the feedback report of the most recently executed
	// query (nil until one runs, or when feedback is off). Guarded by mu.
	LastReport *feedback.Report

	wrappers map[string]wrapper.Wrapper
	// unavailable records wrappers that exhausted the transport's
	// self-healing (engine submits failed with wrapper.ErrUnavailable).
	// Their collections are excluded from answers (partial results),
	// binding prefers surviving owners, and their cost rules are dropped
	// so estimation falls back to the generic calibrated model — the
	// paper's behaviour for sources that are only partially registered.
	unavailable map[string]bool

	// dataGen and costGen are the model generations every cached
	// artifact is stamped with — the one invalidation rule of both
	// caches. dataGen advances on registration, on a wrapper outage mark
	// and on feedback corrections that touch the catalog; costGen on
	// coefficient-only refits. A cached plan is live only while both
	// still match the values read before it was planned; a cached result
	// only while dataGen matches the value read when its execution
	// started. Each advance happens after the change it announces, so a
	// reader that sees the new value also sees the change.
	dataGen atomic.Uint64
	costGen atomic.Uint64

	cache *planCache
	// rcache is the semantic result cache (nil unless
	// Config.ResultCache.Enabled). Internally synchronized like the plan
	// cache: it is read and written from the read-locked query path.
	rcache     *resultcache.Cache
	adm        *admission
	deb        *feedback.Debouncer
	reprepares atomic.Int64
	// Serving outcome counters (see Stats).
	served   atomic.Int64
	qerrors  atomic.Int64
	partials atomic.Int64
	// Adaptive re-optimization counters: re-cost attempts and the subset
	// that switched the running plan (always zero unless Config.Adaptive).
	replans      atomic.Int64
	planSwitches atomic.Int64
}

// New builds an empty mediator.
func New(cfg Config) (*Mediator, error) {
	if cfg.Clock == nil {
		cfg.Clock = netsim.NewClock()
	}
	if cfg.Net == nil {
		cfg.Net = netsim.NewNetwork(netsim.Link{LatencyMS: 10, PerByteMS: 0.0005}, cfg.Clock)
	}
	if cfg.EngineCosts == (engine.Costs{}) {
		cfg.EngineCosts = engine.DefaultCosts()
	}
	reg, err := core.NewDefaultRegistry()
	if err != nil {
		return nil, err
	}
	if cfg.Feedback {
		// The recorder joins per-node predictions against actuals, so the
		// final costing of every chosen plan must capture all variables.
		cfg.OptimizerOptions.CapturePlanCosts = true
	}
	if cfg.Adaptive {
		// The adaptive executor checks divergence against per-node
		// predicted cardinalities, so it needs the same full capture.
		cfg.OptimizerOptions.CapturePlanCosts = true
	}
	m := &Mediator{
		cfg:         cfg,
		Clock:       cfg.Clock,
		Net:         cfg.Net,
		Catalog:     catalog.New(),
		Registry:    reg,
		wrappers:    make(map[string]wrapper.Wrapper),
		unavailable: make(map[string]bool),
		cache:       newPlanCache(cfg.PlanCacheSize),
		rcache:      resultcache.New(cfg.ResultCache, cfg.Clock.Now),
		adm:         newAdmission(cfg.MaxInFlight, cfg.AdmissionTimeout),
	}
	m.Estimator = core.NewEstimator(reg, m.Catalog, cfg.Net)
	if speed := engine.MorselSpeedup(cfg.ExecWorkers); speed != 1 {
		// The engine divides its breaker charges by the morsel speedup;
		// divide the matching estimator coefficients so predicted and
		// measured mediator times stay aligned. Factor 1 (the default)
		// leaves the globals untouched — bit-identical estimates.
		for _, g := range []string{"MedSortPerObj", "MedHashPerObj", "MedJoinPerPair"} {
			if v, ok := m.Estimator.Globals[g]; ok {
				m.Estimator.Globals[g] = types.Float(v.AsFloat() / speed)
			}
		}
	}
	m.Optimizer = optimizer.New(m.Catalog, m.Estimator, cfg.OptimizerOptions)
	if cfg.RecordHistory {
		m.History = history.NewRecorder(reg)
	}
	if cfg.Feedback {
		m.Feedback = feedback.NewRecorder(0) // 0: the package's default window
		m.Adjuster = feedback.NewAdjuster()
		if cfg.FeedbackStore != nil {
			// A missing or corrupt snapshot loads as empty; persisted
			// corrections are an optimization, never a startup gate.
			snap, err := cfg.FeedbackStore.Load()
			if err != nil {
				return nil, err
			}
			feedback.Restore(snap, m.Feedback, m.Adjuster)
			for name, v := range snap.Coeffs {
				if _, ok := m.Estimator.Globals[name]; ok && v > 0 {
					m.Estimator.Globals[name] = types.Float(v)
				}
			}
			m.deb = feedback.NewDebouncer(cfg.FeedbackStore, cfg.FeedbackSaveInterval)
		}
	}
	if err := m.rebuildEngine(); err != nil {
		return nil, err
	}
	return m, nil
}

// rebuildEngine publishes a fresh engine over the current wrapper set;
// the caller holds the write lock (or is still constructing). Superseded
// engines keep serving in-flight executions safely: engine.New snapshots
// the wrapper map.
func (m *Mediator) rebuildEngine() error {
	eng, err := engine.New(m.Clock, m.Net, m.wrappers, m.cfg.EngineCosts)
	if err != nil {
		return err
	}
	eng.Exec = vexec.Options{
		Workers:  m.cfg.ExecWorkers,
		MemBytes: m.cfg.ExecMemBytes,
		SpillDir: m.cfg.ExecSpillDir,
	}
	if m.History != nil {
		rec := m.History
		eng.SubmitHook = func(w string, subplan *algebra.Node, elapsed float64, rows int, bytes int64) {
			// Recording failures must not fail queries.
			_ = rec.Record(w, subplan, elapsed, int64(rows), bytes)
		}
	}
	eng.OnUnavailable = m.markUnavailable
	if m.cfg.Adaptive {
		eng.Adaptive = engine.AdaptiveOptions{
			Threshold: m.cfg.AdaptiveThreshold,
			Margin:    m.cfg.AdaptiveMargin,
		}
		eng.Replan = m.replan
	}
	m.Engine = eng
	return nil
}

// replan is the engine's mid-flight re-optimization callback: it re-costs
// the remaining plan of a paused query with the already-materialized
// subtrees pinned to their observed actuals. It runs during read-locked
// execution and must not touch mu (like markUnavailable); it clones the
// template estimator exactly as a concurrent prepare would, so the
// running search shares no scratch state with anything else.
func (m *Mediator) replan(req *engine.ReplanRequest) (*engine.ReplanResult, error) {
	est := m.Estimator.Clone()
	est.Reset()
	pins := make(map[*algebra.Node]core.PinnedVars, len(req.Pinned))
	for n, pa := range req.Pinned {
		pins[n] = core.PinnedVars{Rows: float64(pa.Rows), Bytes: float64(pa.Bytes)}
	}
	sr, err := optimizer.New(m.Catalog, est, m.cfg.OptimizerOptions).
		ReoptimizeSuffix(req.Remaining, pins)
	if err != nil {
		return nil, err
	}
	rr := &engine.ReplanResult{Plan: sr.Plan, NewCost: sr.NewCost, OldCost: sr.OldCost}
	if sr.Cost != nil {
		rr.Predicted = predictedRows(sr.Cost)
	}
	return rr, nil
}

// execute runs a prepared plan on the engine and rolls the adaptive
// counters. gen is the data generation read at execution start; every
// submit result the run caches is stamped with it. Callers hold the read
// lock.
func (m *Mediator) execute(eng *engine.Engine, p *Prepared, gen uint64) (*engine.Result, error) {
	var run engine.Run
	if m.rcache != nil {
		run.Results = submitCache{m: m, gen: gen}
	}
	if m.cfg.Adaptive {
		run.Predicted = predictedRows(p.Cost)
	}
	res, err := eng.Execute(p.Plan, run)
	if res != nil {
		if res.Replans > 0 {
			m.replans.Add(int64(res.Replans))
		}
		if res.PlanSwitches > 0 {
			m.planSwitches.Add(int64(res.PlanSwitches))
		}
	}
	return res, err
}

// predictedRows extracts the optimizer's per-node cardinality
// predictions from a full-variable plan cost capture.
func predictedRows(pc *core.PlanCost) map[*algebra.Node]float64 {
	if pc == nil {
		return nil
	}
	out := make(map[*algebra.Node]float64, len(pc.ByNode))
	for n, nc := range pc.ByNode {
		out[n] = nc.Var("CountObject", 0)
	}
	return out
}

// submitCache exposes the mediator's semantic result cache to one
// execution's submit boundaries: lookups check entries against the live
// data generation, inserts carry the one read at execution start.
type submitCache struct {
	m   *Mediator
	gen uint64
}

func (c submitCache) Get(h algebra.Hash128) ([]types.Row, bool) {
	e, ok := c.m.rcache.Get(h, c.m.dataGen.Load())
	if !ok {
		return nil, false
	}
	return e.Rows, true
}

func (c submitCache) Put(h algebra.Hash128, rows []types.Row, schema *types.Schema, bytes int64) {
	c.m.rcache.Put(h, rows, schema, c.gen, bytes)
}

// stamp reads both model generations; read it before the work whose
// product it will stamp.
func (m *Mediator) stamp() stamp {
	return stamp{data: m.dataGen.Load(), cost: m.costGen.Load()}
}

// markUnavailable degrades the mediator after a source outage: the
// wrapper's collections stop being preferred at bind time, its
// wrapper-specific cost rules are dropped so estimation over surviving
// copies falls back to the generic calibrated model, and the data
// generation advances — retiring cached plans, which may still route
// subqueries to the dead source, and cached results computed against it.
// Called from engine callbacks while the read lock is held; it must not
// touch mu.
func (m *Mediator) markUnavailable(name string) {
	m.downMu.Lock()
	if m.unavailable[name] {
		m.downMu.Unlock()
		return
	}
	m.unavailable[name] = true
	m.downMu.Unlock()
	m.Registry.DropWrapper(name)
	m.dataGen.Add(1)
}

// Available reports whether a registered wrapper is currently usable.
func (m *Mediator) Available(name string) bool {
	m.mu.RLock()
	_, registered := m.wrappers[name]
	m.mu.RUnlock()
	m.downMu.Lock()
	down := m.unavailable[name]
	m.downMu.Unlock()
	return registered && !down
}

// Unavailable lists the wrappers marked down, sorted.
func (m *Mediator) Unavailable() []string {
	m.downMu.Lock()
	defer m.downMu.Unlock()
	out := make([]string, 0, len(m.unavailable))
	for n := range m.unavailable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// downedSnapshot copies the down-mark set for one bind pass.
func (m *Mediator) downedSnapshot() map[string]bool {
	m.downMu.Lock()
	defer m.downMu.Unlock()
	if len(m.unavailable) == 0 {
		return nil
	}
	out := make(map[string]bool, len(m.unavailable))
	for n, v := range m.unavailable {
		out[n] = v
	}
	return out
}

// Register runs the registration phase for one wrapper: catalog upload
// plus cost-rule integration (paper Figure 1). Re-registering a name
// replaces its catalog entry and rules (the paper's administrative
// re-registration interface). Registration takes the write lock — it
// drains in-flight queries, bumps the catalog epoch and the data
// generation (retiring every cached plan and result), and publishes a
// fresh engine.
func (m *Mediator) Register(w wrapper.Wrapper) error {
	if w.Clock() != m.Clock {
		return fmt.Errorf("mediator: wrapper %s does not share the mediator clock", w.Name())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.Catalog.Register(w); err != nil {
		return err
	}
	m.Registry.DropWrapper(w.Name())
	if m.cfg.UseWrapperRules {
		if src := w.CostRules(); src != "" {
			file, err := costlang.Parse(src)
			if err != nil {
				return fmt.Errorf("mediator: parsing %s cost rules: %w", w.Name(), err)
			}
			if err := m.Registry.IntegrateWrapper(w.Name(), file, m.Catalog); err != nil {
				return fmt.Errorf("mediator: integrating %s cost rules: %w", w.Name(), err)
			}
		}
	}
	m.wrappers[w.Name()] = w
	// (Re-)registration revives a wrapper previously marked unavailable:
	// the rebuilt engine starts with clean down-marks and the rules just
	// integrated above are live again.
	m.downMu.Lock()
	delete(m.unavailable, w.Name())
	m.downMu.Unlock()
	if m.Adjuster != nil {
		// Learned cardinality corrections outlive registrations: the fresh
		// entry becomes the new correction base and the factor re-applies.
		m.Adjuster.Reapply(m.Catalog)
	}
	m.dataGen.Add(1)
	return m.rebuildEngine()
}

// Wrapper returns a registered wrapper.
func (m *Mediator) Wrapper(name string) (wrapper.Wrapper, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	w, ok := m.wrappers[name]
	return w, ok
}

// Prepared is a bound and optimized query ready for execution. Prepared
// values may be shared by concurrent executions (the plan cache hands
// the same instance to every hit) and must not be mutated.
type Prepared struct {
	SQL   string
	Query *sqlparser.Query
	Block *optimizer.QueryBlock
	Plan  *algebra.Node
	Cost  *core.PlanCost
	// PlansCosted reports the optimizer's search effort.
	PlansCosted int
	// Epoch is the catalog epoch the plan was built under; ExecutePlan
	// re-prepares (or rejects) plans whose epoch no longer matches.
	Epoch uint64
	// Hash is the 128-bit structural hash of the chosen plan.
	Hash algebra.Hash128
}

// Prepare parses, binds and optimizes a query, serving repeated
// statements from the bounded plan cache.
func (m *Mediator) Prepare(sql string) (*Prepared, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.prepareCached(sql)
}

// prepareCached serves sql from the plan cache or plans it fresh and
// caches the result. Callers hold the read lock.
func (m *Mediator) prepareCached(sql string) (*Prepared, error) {
	key := NormalizeSQL(sql)
	s := m.stamp()
	if p, ok := m.cache.get(key, s); ok {
		return p, nil
	}
	p, _, err := m.prepareLocked(sql, false, false)
	if err != nil {
		return nil, err
	}
	m.cache.put(key, p, s)
	return p, nil
}

// prepareLocked plans one statement on private optimizer state: the
// template estimator is cloned and a per-call optimizer built over the
// clone, so concurrent prepares never share options, scratch arenas or
// pruning budgets. Callers hold the read lock (or the write lock).
// trace enables per-node estimation traces (Explain); capture forces a
// full per-node variable capture (ExplainAnalyze). The estimator used
// is returned for renderers that need it.
func (m *Mediator) prepareLocked(sql string, trace, capture bool) (*Prepared, *core.Estimator, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	block, err := m.bind(q)
	if err != nil {
		return nil, nil, err
	}
	est := m.Estimator.Clone()
	est.Reset()
	est.Options.Trace = trace
	opts := m.cfg.OptimizerOptions
	if capture {
		opts.CapturePlanCosts = true
	}
	// Price cache-hit access paths against a frozen snapshot of the
	// result cache: the live cache may churn mid-search, and the parallel
	// workers must all see one consistent view for the chosen plan to
	// stay deterministic. A nil view (cache disabled or empty) leaves the
	// search bit-identical to the cache-less build.
	if view := m.rcache.SnapshotView(m.dataGen.Load()); view != nil {
		opts.CacheView = view
	}
	res, err := optimizer.New(m.Catalog, est, opts).Optimize(block)
	if err != nil {
		return nil, nil, err
	}
	return &Prepared{
		SQL:         sql,
		Query:       q,
		Block:       block,
		Plan:        res.Plan,
		Cost:        res.Cost,
		PlansCosted: res.PlansCosted,
		Epoch:       m.Catalog.Epoch(),
		Hash:        res.Plan.StructuralHash(),
	}, est, nil
}

// Query runs the full pipeline: admission, prepare (cache-aware), then
// execute. With feedback enabled the execution is absorbed into the
// model before returning.
func (m *Mediator) Query(sql string) (*engine.Result, error) {
	if err := m.adm.acquire(); err != nil {
		return nil, err
	}
	defer m.adm.release()
	p, err := m.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return m.executeAdmitted(p)
}

// Warm primes the caches for a statement without a client waiting on
// the answer: it prepares sql (populating the plan cache) and, when the
// result cache is enabled but holds no live entry for the plan, executes
// it once to seed the answer. The returned bool reports whether an
// execution ran (false = the plan alone was warmed, or the result was
// already cached). Warming goes through admission like any query so a
// gossip-driven warm storm cannot starve real clients.
func (m *Mediator) Warm(sql string) (bool, error) {
	if err := m.adm.acquire(); err != nil {
		return false, err
	}
	defer m.adm.release()
	p, err := m.Prepare(sql)
	if err != nil {
		return false, err
	}
	if m.rcache == nil || m.rcache.Peek(p.Hash, m.dataGen.Load()) {
		return false, nil
	}
	if _, err := m.executeAdmitted(p); err != nil {
		return false, err
	}
	return true, nil
}

// ExecutePlan executes a previously prepared plan, feeding the actuals
// back into the model when feedback is enabled. A plan prepared under an
// older catalog epoch is transparently re-prepared from its SQL text
// (ErrStalePlan when it has none): plans never execute against a
// federation they were not costed for.
func (m *Mediator) ExecutePlan(p *Prepared) (*engine.Result, error) {
	if err := m.adm.acquire(); err != nil {
		return nil, err
	}
	defer m.adm.release()
	return m.executeAdmitted(p)
}

// executeAdmitted runs a prepared plan under the read lock. The lock is
// held across execution, so a registration (write lock) drains every
// in-flight query first and a plan can never run concurrently with the
// federation change that would invalidate it.
func (m *Mediator) executeAdmitted(p *Prepared) (*engine.Result, error) {
	m.mu.RLock()
	if p == nil || p.Plan == nil {
		m.mu.RUnlock()
		return nil, fmt.Errorf("mediator: ExecutePlan needs a prepared plan")
	}
	if p.Epoch != m.Catalog.Epoch() {
		if p.SQL == "" {
			m.mu.RUnlock()
			return nil, ErrStalePlan
		}
		fresh, err := m.prepareCached(p.SQL)
		if err != nil {
			m.mu.RUnlock()
			return nil, fmt.Errorf("mediator: re-preparing stale plan: %w", err)
		}
		m.reprepares.Add(1)
		p = fresh
	}
	gen := m.dataGen.Load()
	if m.rcache != nil {
		if e, ok := m.rcache.Get(p.Hash, gen); ok {
			// Whole-plan hit: serve the materialized answer, charging the
			// ScopeCache formula to the virtual clock. No profile is
			// attached — there is nothing here the feedback loop should
			// learn source behaviour from.
			ms := resultcache.HitCostMS(int64(len(e.Rows)))
			m.Clock.Advance(ms)
			res := &engine.Result{Rows: e.Rows, Schema: e.Schema, ElapsedMS: ms}
			m.mu.RUnlock()
			m.served.Add(1)
			return res, nil
		}
	}
	eng := m.Engine
	res, err := m.execute(eng, p, gen)
	if err == nil && res != nil && !res.Partial && m.rcache != nil {
		// Admit the complete answer stamped with the generation read
		// before execution: if an outage mark advanced it mid-run, the
		// entry is dead on arrival and never served. Partial answers are
		// refused outright.
		m.rcache.Put(p.Hash, res.Rows, res.Schema, gen, 0)
	}
	m.mu.RUnlock()
	if err != nil {
		m.qerrors.Add(1)
	} else {
		m.served.Add(1)
		if res != nil && res.Partial {
			m.partials.Add(1)
		}
	}
	if err == nil && m.Feedback != nil {
		m.mu.Lock()
		m.absorbLocked(p, res)
		m.mu.Unlock()
	}
	return res, err
}

// absorbLocked closes the feedback loop for one execution: the profile
// is joined against the plan's predicted costs, q-error accumulators
// update, the adjuster refines statistics and coefficients, and the
// snapshot save is scheduled (debounced). Callers hold the write lock.
// Returns the joined report (nil when feedback is off or the run carries
// no usable profile).
func (m *Mediator) absorbLocked(p *Prepared, res *engine.Result) *feedback.Report {
	if m.Feedback == nil || p == nil || p.Cost == nil || res == nil || res.Profile == nil {
		return nil
	}
	if res.PlanSwitches > 0 {
		// The adaptive executor switched plans mid-query: the profile is
		// keyed by the executed plan's nodes, which no longer join the
		// prepared plan's predictions pointer-for-pointer. The switch
		// itself already corrected this query; absorbing a mismatched
		// join would teach the model noise.
		return nil
	}
	if res.Profile.CacheServed > 0 {
		// Cache-served submits measured an in-memory lookup, not the
		// source; absorbing them would teach the adjuster that wrappers
		// are nearly free. (Whole-plan cache hits carry no profile at all
		// and never reach this point.)
		return nil
	}
	rep := m.Feedback.Observe(p.Plan, p.Cost, res.Profile)
	m.LastReport = rep
	if m.Adjuster != nil {
		if adj := m.Adjuster.Apply(rep, m.Catalog, m.Estimator.Globals); len(adj) > 0 {
			// The corrections changed the model cached plans were costed
			// against, so one generation advances and the next prepare
			// re-plans. Catalog-touching corrections advance the data
			// generation, retiring cached results too: a statistics fix
			// means observations contradicted the model, so re-executing
			// is the conservative move. Pure time-coefficient refits
			// advance only the cost generation — they change nothing about
			// what a plan returns and fire on almost every absorbed
			// execution, so retiring answers for them would starve the
			// result cache under feedback.
			gen := &m.costGen
			for _, ad := range adj {
				if !ad.CostOnly() {
					gen = &m.dataGen
					break
				}
			}
			gen.Add(1)
		}
	}
	if m.deb != nil {
		// Persisting corrections must never fail the query that produced
		// them; a failed save means relearning after the next restart.
		_ = m.deb.Mark(func() *feedback.Snapshot {
			return feedback.Capture(m.Feedback, m.Adjuster, m.Adjuster.FittedCoeffs(m.Estimator.Globals))
		})
	}
	return rep
}

// Close flushes deferred state — the debounced feedback snapshot — so
// shutdown never loses absorbed executions. The mediator remains usable
// afterwards.
func (m *Mediator) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.deb != nil {
		return m.deb.Flush()
	}
	return nil
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// PlanCacheHits/Misses/Stale count cache lookups; Stale is the
	// subset of misses that found an entry retired by a generation
	// advance.
	PlanCacheHits   int64
	PlanCacheMisses int64
	PlanCacheStale  int64
	// PlanCacheEntries is the number of live cached plans.
	PlanCacheEntries int
	// Result-cache counters (all zero when Config.ResultCache is
	// disabled). Hits and misses count lookups at whole-plan and submit
	// granularity; Stale and Expired are the miss subsets evicted by a
	// data-generation advance or the TTL. Evictions counts budget
	// displacements, Invalidations data-generation advances (each one
	// retires every cached answer: registration, outage, catalog-touching
	// feedback correction), Rejected refused over-budget results.
	ResultCacheHits          int64
	ResultCacheMisses        int64
	ResultCacheStale         int64
	ResultCacheExpired       int64
	ResultCacheEvictions     int64
	ResultCacheInvalidations int64
	ResultCacheRejected      int64
	// ResultCacheEntries/Bytes are the live population and its
	// estimated memory footprint.
	ResultCacheEntries int
	ResultCacheBytes   int64
	// Reprepares counts stale plans transparently re-planned by
	// ExecutePlan.
	Reprepares int64
	// Shed counts queries rejected by admission control.
	Shed int64
	// InFlight is the number of currently admitted queries (0 when
	// admission control is off).
	InFlight int
	// FeedbackSaves counts snapshot writes that reached the store.
	FeedbackSaves int64
	// QueriesServed counts executions that completed successfully
	// (partial answers included); QueryErrors counts executions that
	// failed. Neither includes shed queries or prepare-time failures.
	QueriesServed int64
	QueryErrors   int64
	// PartialAnswers is the subset of QueriesServed that excluded one or
	// more unavailable wrappers.
	PartialAnswers int64
	// AdaptiveReplans counts mid-flight re-cost attempts and
	// AdaptiveSwitches the subset that switched the running plan (both
	// always zero unless Config.Adaptive).
	AdaptiveReplans  int64
	AdaptiveSwitches int64
	// Epoch is the catalog registration epoch at snapshot time.
	Epoch uint64
}

// Stats reports the serving counters. It takes the read lock briefly
// for the catalog epoch, so it serializes against registrations.
func (m *Mediator) Stats() Stats {
	m.mu.RLock()
	epoch := m.Catalog.Epoch()
	m.mu.RUnlock()
	live := m.stamp()
	h, mi, st := m.cache.counters()
	rc := m.rcache.Counters(live.data)
	s := Stats{
		PlanCacheHits:    h,
		PlanCacheMisses:  mi,
		PlanCacheStale:   st,
		PlanCacheEntries: m.cache.len(live),

		ResultCacheHits:      rc.Hits,
		ResultCacheMisses:    rc.Misses,
		ResultCacheStale:     rc.Stale,
		ResultCacheExpired:   rc.Expired,
		ResultCacheEvictions: rc.Evictions,
		ResultCacheRejected:  rc.Rejected,
		ResultCacheEntries:   rc.Entries,
		ResultCacheBytes:     rc.Bytes,

		Reprepares:       m.reprepares.Load(),
		Shed:             m.adm.shedCount(),
		InFlight:         m.adm.inFlight(),
		QueriesServed:    m.served.Load(),
		QueryErrors:      m.qerrors.Load(),
		PartialAnswers:   m.partials.Load(),
		AdaptiveReplans:  m.replans.Load(),
		AdaptiveSwitches: m.planSwitches.Load(),
		Epoch:            epoch,
	}
	if m.rcache != nil {
		// The data generation counts its own advances, and each one
		// retired every cached answer.
		s.ResultCacheInvalidations = int64(live.data)
	}
	if m.deb != nil {
		s.FeedbackSaves = m.deb.Saves()
	}
	return s
}

// Explain renders the chosen plan with its cost annotations. Explains
// bypass the plan cache: the trace must come from a fresh estimation.
func (m *Mediator) Explain(sql string) (string, error) {
	if err := m.adm.acquire(); err != nil {
		return "", err
	}
	defer m.adm.release()
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, est, err := m.prepareLocked(sql, true, false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s\n", sql)
	fmt.Fprintf(&b, "-- estimated TotalTime: %.3f ms (%d candidate estimations)\n",
		p.Cost.TotalTime(), p.PlansCosted)
	b.WriteString(est.Explain(p.Plan, p.Cost))
	return b.String(), nil
}

// ExplainAnalyze prepares, executes and renders a query's plan tree with
// each node annotated `est=… act=… q=…` — the estimator's predicted
// cardinality and subtree time against the measured actuals, with their
// q-errors. Operators below a submit execute opaquely inside the wrapper
// and show estimates only; an excluded submit (unavailable wrapper) is
// marked. With feedback enabled the execution is absorbed into the model
// like any other query. Bypasses the plan cache: the rendering needs a
// private plan with a full per-node variable capture.
func (m *Mediator) ExplainAnalyze(sql string) (string, error) {
	if err := m.adm.acquire(); err != nil {
		return "", err
	}
	defer m.adm.release()
	m.mu.RLock()
	p, _, err := m.prepareLocked(sql, false, true)
	if err != nil {
		m.mu.RUnlock()
		return "", err
	}
	gen := m.dataGen.Load()
	eng := m.Engine
	res, err := m.execute(eng, p, gen)
	m.mu.RUnlock()
	if err != nil {
		return "", err
	}
	if m.Feedback != nil {
		m.mu.Lock()
		m.absorbLocked(p, res)
		m.mu.Unlock()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s\n", sql)
	fmt.Fprintf(&b, "-- estimated TotalTime: %.3f ms, actual: %.3f ms (q=%.2f), %d rows",
		p.Cost.TotalTime(), res.ElapsedMS,
		feedback.QError(p.Cost.TotalTime(), res.ElapsedMS, 0.01), len(res.Rows))
	if res.Partial {
		fmt.Fprintf(&b, " [PARTIAL: excluded %s]", strings.Join(res.Excluded, ", "))
	}
	b.WriteByte('\n')
	plan := p.Plan
	if res.Replans > 0 {
		fmt.Fprintf(&b, "-- adaptive: %d replan(s), %d plan switch(es) mid-flight\n",
			res.Replans, res.PlanSwitches)
	}
	if res.ExecutedPlan != nil {
		// Render the plan that actually finished the query. Subtrees
		// materialized before the switch keep their original nodes (and
		// estimates); the switched suffix is new and shows actuals only.
		plan = res.ExecutedPlan
	}
	renderAnalyze(&b, plan, 0, p.Cost, res.Profile)
	return b.String(), nil
}

// renderAnalyze prints one node of the annotated plan tree and recurses.
func renderAnalyze(b *strings.Builder, n *algebra.Node, depth int, pc *core.PlanCost, prof *feedback.Profile) {
	indent := strings.Repeat("  ", depth)
	head := strings.TrimSpace(strings.SplitN(n.String(), "\n", 2)[0])
	fmt.Fprintf(b, "%s%s", indent, head)
	est, okE := pc.ByNode[n]
	act, okA := prof.Actual(n)
	switch {
	case okE && okA && act.Excluded:
		fmt.Fprintf(b, "  est=%.4g rows %.4g ms  act: EXCLUDED (wrapper %s unavailable)",
			est.Var("CountObject", 0), est.TotalTime(), act.Wrapper)
	case okE && okA:
		fmt.Fprintf(b, "  est=%.4g act=%d q=%.2f rows | est=%.4g act=%.4g q=%.2f ms",
			est.Var("CountObject", 0), act.RowsOut,
			feedback.QError(est.Var("CountObject", 0), float64(act.RowsOut), 1),
			est.TotalTime(), act.SubtreeMS,
			feedback.QError(est.TotalTime(), act.SubtreeMS, 0.01))
		if n.Kind == algebra.OpSubmit {
			fmt.Fprintf(b, " | %d round-trip(s) %d B", act.RoundTrips, act.Bytes)
		}
	case okE:
		fmt.Fprintf(b, "  est=%.4g rows %.4g ms (wrapper-resident: no actuals)",
			est.Var("CountObject", 0), est.TotalTime())
	case okA:
		fmt.Fprintf(b, "  act=%d rows %.4g ms", act.RowsOut, act.SubtreeMS)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderAnalyze(b, c, depth+1, pc, prof)
	}
}

// FeedbackSummary renders the execution-feedback state: the per-scope
// q-error table, the learned extent corrections and the re-fitted cost
// coefficients. It errors when feedback is disabled.
func (m *Mediator) FeedbackSummary() (string, error) {
	if m.Feedback == nil || m.Adjuster == nil {
		return "", fmt.Errorf("mediator: feedback is disabled (Config.Feedback)")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var b strings.Builder
	b.WriteString(m.Feedback.Summary())
	if corr := m.Adjuster.Corrections(); len(corr) > 0 {
		b.WriteString("\nextent corrections:\n")
		for _, c := range corr {
			fmt.Fprintf(&b, "  %s/%s: claimed %d x %.4g (%d samples)\n",
				c.Wrapper, c.Collection, c.Base, c.Factor, c.Samples)
		}
	}
	if coeffs := m.Adjuster.FittedCoeffs(m.Estimator.Globals); len(coeffs) > 0 {
		b.WriteString("\nre-fitted coefficients:\n")
		names := make([]string, 0, len(coeffs))
		for n := range coeffs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %s = %.6g\n", n, coeffs[n])
		}
	}
	return b.String(), nil
}

// bind resolves a parsed query against the catalog into an optimizer
// query block (the paper's step "transforms the query, written with
// respect to a global view, into a query over local schemas"). Callers
// hold at least the read lock.
func (m *Mediator) bind(q *sqlparser.Query) (*optimizer.QueryBlock, error) {
	down := m.downedSnapshot()
	rels := make([]optimizer.Rel, 0, len(q.From))
	for _, tr := range q.From {
		wrapperName := tr.Wrapper
		if wrapperName == "" {
			owners := m.Catalog.FindCollection(tr.Collection)
			// Prefer surviving owners: a replica at a live wrapper
			// disambiguates away the dead ones. Only when no owner is
			// alive does the unfiltered list apply (the engine will then
			// return a partial answer with the dead wrapper excluded).
			if alive := availableOwners(owners, down); len(alive) > 0 {
				owners = alive
			}
			switch len(owners) {
			case 0:
				return nil, fmt.Errorf("mediator: unknown collection %q", tr.Collection)
			case 1:
				wrapperName = owners[0]
			default:
				return nil, fmt.Errorf("mediator: collection %q exists at several wrappers (%s); pin one with %s@wrapper",
					tr.Collection, strings.Join(owners, ", "), tr.Collection)
			}
		} else if !m.Catalog.HasCollection(wrapperName, tr.Collection) {
			return nil, fmt.Errorf("mediator: unknown collection %s@%s", tr.Collection, wrapperName)
		}
		rels = append(rels, optimizer.Rel{Wrapper: wrapperName, Collection: tr.Collection})
	}

	rels, joins, err := optimizer.SplitPredicate(m.Catalog, rels, q.Where)
	if err != nil {
		return nil, err
	}
	block := &optimizer.QueryBlock{
		Relations: rels,
		JoinPreds: joins,
		Distinct:  q.Distinct,
		Sort:      q.OrderBy,
	}

	// Select list: aggregates switch the block into grouping mode.
	hasAgg := false
	for _, it := range q.Items {
		if it.Agg != nil {
			hasAgg = true
		}
	}
	if hasAgg {
		block.GroupBy = q.GroupBy
		for _, it := range q.Items {
			switch {
			case it.Agg != nil:
				block.Aggs = append(block.Aggs, *it.Agg)
			case it.Star:
				return nil, fmt.Errorf("mediator: cannot mix * with aggregates")
			default:
				if !inGroupBy(q.GroupBy, it.Ref) {
					return nil, fmt.Errorf("mediator: %s must appear in GROUP BY", it.Ref)
				}
			}
		}
	} else {
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("mediator: GROUP BY without aggregates")
		}
		star := false
		var cols []string
		for _, it := range q.Items {
			if it.Star {
				star = true
				continue
			}
			cols = append(cols, it.Ref.String())
		}
		if star && len(cols) > 0 {
			return nil, fmt.Errorf("mediator: cannot mix * with named columns")
		}
		if !star {
			block.Projection = cols
		}
	}
	return block, nil
}

// availableOwners filters a FindCollection result down to live wrappers.
func availableOwners(owners []string, unavailable map[string]bool) []string {
	if len(unavailable) == 0 {
		return owners
	}
	out := make([]string, 0, len(owners))
	for _, o := range owners {
		if !unavailable[o] {
			out = append(out, o)
		}
	}
	return out
}

func inGroupBy(groupBy []algebra.Ref, r algebra.Ref) bool {
	for _, g := range groupBy {
		if strings.EqualFold(g.Attr, r.Attr) &&
			(g.Collection == "" || r.Collection == "" || strings.EqualFold(g.Collection, r.Collection)) {
			return true
		}
	}
	return false
}
