package main

import "fmt"

// traceWindows is how many windows a traced run alternates between
// tracing off and on (off first), so that neighbour load drifts hit
// both sides alike.
const traceWindows = 4

// attributionTolerance is how far the summed layer self times of the
// traced requests may stray from their mean client-observed latency.
const attributionTolerance = 0.10

// runTraced measures per-layer metrics. Tracing decorators are mounted
// for the whole run but record only in the traced windows; the untraced
// windows give the runtime counts and the qps the tracing overhead is
// judged against.
func runTraced(cfg config) (*report, error) {
	tr := newTracer()
	s, err := start(cfg, tr)
	if err != nil {
		return nil, err
	}
	var plain, traced tally
	var plainUse usage
	c0 := s.d.counters()
	win := seconds(cfg.seconds / traceWindows)
	for k := 0; k < traceWindows; k++ {
		on := k%2 == 1
		tr.enabled.Store(on)
		u0 := readUsage()
		t := phase(s.clients, win, 0, tr)
		u := readUsage().sub(u0)
		tr.enabled.Store(false)
		if on {
			traced.merge(t)
			traced.elapsed += t.elapsed
		} else {
			plain.merge(t)
			plain.elapsed += t.elapsed
			plainUse = plainUse.add(u)
		}
	}
	c := s.d.counters().sub(c0)

	// Behind a router, one more untraced window sends the same traffic
	// straight to the replicas: the difference in allocation per
	// operation is the router's.
	var direct *tally
	var directUse usage
	if cfg.workload.routed {
		dc := make([]*client, cfg.clients)
		for i := range dc {
			dc[i] = dialClient(s.d.addrs[i%len(s.d.addrs)], cfg.workload.newStream(paperParts, cfg.seed, i))
		}
		u0 := readUsage()
		direct = phase(dc, win, 0, nil)
		directUse = readUsage().sub(u0)
		for _, cl := range dc {
			cl.close()
		}
	}

	var rules, scopes int
	var qerrs []float64
	for _, fed := range s.d.feds {
		rules += fed.Med.History.Len()
		for _, sc := range fed.Med.Feedback.Scopes() {
			scopes++
			qerrs = append(qerrs, sc.CardMedian)
		}
	}
	spans := tr.snapshot()
	if err := s.stop(); err != nil {
		return nil, err
	}
	if err := tr.write(traceFile(cfg), traced.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	rep := newReport()
	rep.text("workload %s seed %d (traced): %d clients, %d windows of %.2f s, parts %d", cfg.workload.name, cfg.seed, cfg.clients, traceWindows, win.Seconds(), paperParts)
	all := &tally{}
	all.merge(&plain)
	all.merge(&traced)
	if direct != nil {
		all.merge(direct)
	}
	if err := rep.outcome(all); err != nil {
		return nil, err
	}

	a := analyze(spans, traced.spans)
	plainQPS := float64(plain.ok) / plain.elapsed.Seconds()
	tracedQPS := float64(traced.ok) / traced.elapsed.Seconds()
	perOp := func(v uint64, t *tally) float64 { return float64(v) / float64(max(t.ok, 1)) }

	pct := func(name string, values []float64, q float64) {
		v, ok := percentile(sortedCopy(values), q)
		note := fmt.Sprintf("n=%d", len(values))
		if !ok {
			note += fmt.Sprintf(" (n/a: fewer than %d samples beyond it)", minTail)
		}
		rep.add(name, v, "us", note)
	}
	count := func(name string, v float64, unit, note string) { rep.add(name, v, unit, note) }

	// Execution: engine/vexec, feedback absorb, history hook.
	pct("engine.self_us_p50", a.engineSelf, 0.5)
	count("runtime.alloc_kb_per_op", perOp(plainUse.alloc, &plain)/1024, "KiB", "untraced windows")
	count("runtime.mallocs_per_op", perOp(plainUse.mallocs, &plain), "count", "untraced windows")
	count("runtime.gc_pause_ms", float64(plainUse.pauseNs)/1e6, "ms", fmt.Sprintf("GC pauses over %.2f s untraced", plain.elapsed.Seconds()))
	count("runtime.cpu_ms_per_op", float64(plainUse.cpu.Microseconds())/1e3/float64(max(plain.ok, 1)), "ms", "untraced windows")

	// Wire and sources.
	pct("proto.wire_us_p50", a.wire, 0.5)
	pct("wrapper.execute_us_p50", a.wrapperUS, 0.5)
	count("wrapper.calls_per_query", float64(a.wrapperCalls)/float64(max(a.executes, 1)), "count", fmt.Sprintf("calls=%d executions=%d", a.wrapperCalls, a.executes))
	count("wrapper.rows_per_call", float64(a.wrapperRows)/float64(max(a.wrapperCalls, 1)), "count", "")

	// Planning.
	pct("mediator.prepare_us_p50", a.prepareUS, 0.5)
	pct("mediator.prepare_us_p99", a.prepareUS, 0.99)
	pct("mediator.explain_us_p50", a.explainUS, 0.5)
	pct("sqlparser.parse_us_p50", traced.parse, 0.5)
	count("optimizer.plans_costed_per_prepare", mean(a.plans), "count", fmt.Sprintf("fresh prepares and explains=%d", len(a.plans)))

	// Catalog writes and caches.
	pct("catalog.reregister_us_p50", a.reregisterUS, 0.5)
	pct("catalog.reregister_us_p99", a.reregisterUS, 0.99)
	lookups := c.stats.PlanCacheHits + c.stats.PlanCacheMisses
	count("mediator.plancache_hit_rate", ratio(c.stats.PlanCacheHits, lookups), "fraction", fmt.Sprintf("lookups=%d", lookups))
	count("mediator.reprepares", float64(c.stats.Reprepares), "count", "")

	// Learned state.
	count("history.rules", float64(rules), "count", "Recorder.Len summed over replicas")
	count("feedback.scopes", float64(scopes), "count", "")
	count("feedback.card_qerr_p50", median(qerrs), "ratio", "median over scopes of the cardinality q-error median")

	// Router.
	pct("router.hop_us_p50", a.hopUS, 0.5)
	routerKB := 0.0
	if direct != nil {
		routerKB = (perOp(plainUse.alloc, &plain) - perOp(directUse.alloc, direct)) / 1024
	}
	count("router.alloc_kb_per_op", routerKB, "KiB", "routed minus direct allocation per op (0 unless routed)")

	// Failures.
	count("mediator.shed", float64(c.stats.Shed), "count", "")
	count("mediator.query_errors", float64(c.stats.QueryErrors), "count", "")
	rcLookups := c.stats.ResultCacheHits + c.stats.ResultCacheMisses
	count("resultcache.hit_rate", ratio(c.stats.ResultCacheHits, rcLookups), "fraction", fmt.Sprintf("lookups=%d (cache off by default)", rcLookups))

	// Attribution and overhead.
	meanRTT := a.rttUS / float64(max(a.requests, 1))
	attributed := 0.0
	for _, l := range layers {
		v := a.layerUS[l.layer] / float64(max(a.requests, 1))
		attributed += v
		count("layer."+l.layer+"_us_mean", v, "us", "self time per traced request")
	}
	count("trace.request_us_mean", meanRTT, "us", fmt.Sprintf("traced requests=%d tied to server spans=%d", a.requests, a.matched))
	attrRatio := attributed / meanRTT
	count("trace.attributed_ratio", attrRatio, "ratio", fmt.Sprintf("summed layer self times / mean latency; tolerance ±%.0f%%", attributionTolerance*100))
	count("trace.orphan_wrapper_calls", float64(a.orphanCalls), "count", "wrapper calls not tied to a traced execution")
	count("trace.untraced_qps", plainQPS, "ops/s", "")
	count("trace.traced_qps", tracedQPS, "ops/s", "")
	count("trace.overhead_qps_ratio", tracedQPS/plainQPS, "ratio", "traced qps / untraced qps")
	if attrRatio < 1-attributionTolerance || attrRatio > 1+attributionTolerance {
		rep.text("layer self times do not add up to the traced latency: ratio %.3f", attrRatio)
		rep.Correct = false
	}
	rep.text("spans written to %s", traceFile(cfg))
	return rep, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
