package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"testing"
	"time"
)

// scheduleDigest fingerprints the first n requests of each client's
// stream: equal seeds must give equal digests.
func scheduleDigest(w workload, parts int, seed int64, clients, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		s := w.newStream(parts, seed, c)
		fmt.Fprintf(h, "client %d\n", c)
		for i := 0; i < n; i++ {
			r := s.next()
			fmt.Fprintf(h, "%s|%s|%s\n", r.op, r.sql, r.arg)
		}
	}
	return h.Sum64()
}

func TestScheduleDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a := scheduleDigest(w, 14000, 7, 2, 500)
		if b := scheduleDigest(w, 14000, 7, 2, 500); a != b {
			t.Errorf("%s: seed 7 gave digests %x and %x", w.name, a, b)
		}
		if c := scheduleDigest(w, 14000, 8, 2, 500); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", w.name, a)
		}
	}
}

func TestPlanChurnMix(t *testing.T) {
	s := planChurn(14000, 3, 0)
	counts := make(map[string]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.next().op]++
	}
	for op, want := range map[string]float64{"explain": 0.55, "query": 0.42, "reregister": 0.025, "setlink": 0.005} {
		if got := float64(counts[op]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.3f, want about %.3f", op, got, want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i + 1)
	}
	if v, ok := percentile(values, 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	if v, ok := percentile(values, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with exactly 10 beyond", v, ok)
	}
	if v, ok := percentile(values, 0.99); ok || v != 0 {
		t.Errorf("p99 of 100 samples = %v, %v; want not reported", v, ok)
	}
	values = make([]float64, 1000)
	if _, ok := percentile(values, 0.99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it and must be reported")
	}
}

func TestFailuresExceedEveryLimit(t *testing.T) {
	var ops []op
	for i := 0; i < 1940; i++ {
		ops = append(ops, op{at: float64(i) / 1000, lat: 100})
	}
	for i := 0; i < 60; i++ { // 3% failed: beyond p99
		ops = append(ops, op{at: 2, lat: failed})
	}
	p50, p99, err := latencies(ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(requestTimeout.Milliseconds()); p99 != want {
		t.Errorf("p99 with 3%% failures = %v ms, want the %v request timeout", p99, requestTimeout)
	}
	if p50 != 0.1 {
		t.Errorf("p50 = %v ms, want 0.1", p50)
	}
	if _, _, err := latencies(ops[:500]); err == nil {
		t.Error("500 operations must be too few for a p99")
	}
}

// TestLostClientCountsItsUnsentOps drives a client against a server that
// hangs up at once: the request in flight fails and the rest of the
// client's share is counted as scheduled and failed.
func TestLostClientCountsItsUnsentOps(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	c := dialClient(ln.Addr().String(), hotSmall(1500, 1, 0))
	defer c.close()
	tl := phase([]*client{c}, 0, 10, nil)
	if tl.scheduled() != 10 || tl.failures() != 10 || tl.unsent != 9 || len(tl.lost) != 1 {
		t.Errorf("scheduled=%d failures=%d unsent=%d lost=%d; want 10, 10, 9, 1",
			tl.scheduled(), tl.failures(), tl.unsent, len(tl.lost))
	}
	for _, o := range tl.ops {
		if !math.IsInf(o.lat, 1) {
			t.Fatalf("a failed op has latency %v, want +Inf", o.lat)
		}
	}
	// A timed phase extrapolates: a client lost before the deadline still
	// owes operations.
	if tl := phase([]*client{c}, 50*time.Millisecond, 0, nil); tl.unsent == 0 || tl.failures() != tl.scheduled() {
		t.Errorf("timed phase on a lost client: unsent=%d failures=%d scheduled=%d", tl.unsent, tl.failures(), tl.scheduled())
	}
	ln.Close()
	<-done
}

func TestExplainedPlans(t *testing.T) {
	text := "-- SELECT 1\n-- estimated TotalTime: 12.500 ms (42 candidate estimations)\nplan"
	if got := explainedPlans(text); got != 42 {
		t.Errorf("explainedPlans = %d, want 42", got)
	}
	if got := explainedPlans("no header"); got != 0 {
		t.Errorf("explainedPlans without a header = %d, want 0", got)
	}
}

func TestLayersAddUpToRoundTrip(t *testing.T) {
	spans := []span{
		{Name: "serving.handle", ID: 0, Parent: -1, Start: 10, End: 90, Conn: "c1", Op: "query"},
		{Name: "mediator.prepare", ID: 1, Parent: 0, Start: 20, End: 30},
		{Name: "mediator.execute", ID: 2, Parent: 0, Start: 30, End: 80},
		{Name: "wrapper.execute", ID: 3, Parent: 2, Start: 40, End: 60},
		{Name: "serving.encode", ID: 4, Parent: 0, Start: 80, End: 85},
	}
	clients := []clientSpan{{local: "c1", start: 0, end: 100, op: "query"}}
	a := analyze(spans, clients)
	want := map[string]float64{"proto.wire": 20, "serving": 15, "mediator.prepare": 10, "engine": 30, "wrapper": 20, "serving.encode": 5}
	sum := 0.0
	for layer, ns := range want {
		if got := a.layerUS[layer] * 1e3; math.Abs(got-ns) > 1e-9 {
			t.Errorf("%s = %v ns, want %v", layer, got, ns)
		}
		sum += a.layerUS[layer]
	}
	if math.Abs(sum-a.rttUS) > 1e-9 || a.matched != 1 {
		t.Errorf("layers sum to %v µs of a %v µs round trip (matched %d)", sum, a.rttUS, a.matched)
	}
}

func TestScatterShardsShareTheirInterval(t *testing.T) {
	spans := []span{
		{Name: "router.handle", ID: 0, Parent: -1, Start: 10, End: 90, Conn: "c1", Op: "query", SQL: "SELECT sname FROM Suppliers WHERE region = 3"},
		{Name: "serving.handle", ID: 1, Parent: -1, Start: 20, End: 80, Conn: "pool", Op: "query", SQL: "SELECT sname FROM Suppliers WHERE region = 3 AND sid < 250"},
		{Name: "serving.handle", ID: 2, Parent: -1, Start: 20, End: 80, Conn: "pool", Op: "query", SQL: "SELECT sname FROM Suppliers WHERE region = 3 AND sid >= 250"},
	}
	a := analyze(spans, []clientSpan{{local: "c1", start: 0, end: 100, op: "query"}})
	if len(a.hopUS) != 1 || math.Abs(a.hopUS[0]*1e3-20) > 1e-9 {
		t.Fatalf("router hop = %v µs, want one hop of 20 ns (shards linked)", a.hopUS)
	}
	if got := a.layerUS["serving"] * 1e3; math.Abs(got-60) > 1e-9 {
		t.Errorf("parallel shards attributed %v ns, want the 60 ns they cover", got)
	}
}

func TestConcurrentIdenticalStatementsAllLink(t *testing.T) {
	const sql = "SELECT docId FROM AtomicParts WHERE AtomicParts.id = 7"
	spans := []span{
		{Name: "router.handle", ID: 0, Parent: -1, Start: 0, End: 100, Conn: "c1", Op: "query", SQL: sql},
		{Name: "router.handle", ID: 1, Parent: -1, Start: 10, End: 60, Conn: "c2", Op: "query", SQL: sql},
		{Name: "serving.handle", ID: 2, Parent: -1, Start: 20, End: 55, Conn: "pool", Op: "query", SQL: sql},
		{Name: "serving.handle", ID: 3, Parent: -1, Start: 50, End: 95, Conn: "pool", Op: "query", SQL: sql},
	}
	a := analyze(spans, []clientSpan{{local: "c1", start: 0, end: 100}, {local: "c2", start: 5, end: 65}})
	if len(a.hopUS) != 2 {
		t.Errorf("forwarded: %d of 2 router spans linked to a replica span", len(a.hopUS))
	}

	// Two concurrent scatters of one statement: each takes one span per
	// shard statement.
	const scat = "SELECT sname FROM Suppliers WHERE region = 4"
	lo, hi := scat+" AND Suppliers.sid < 250", scat+" AND Suppliers.sid >= 250"
	spans = []span{
		{Name: "router.handle", ID: 0, Parent: -1, Start: 0, End: 100, Conn: "c1", Op: "query", SQL: scat},
		{Name: "router.handle", ID: 1, Parent: -1, Start: 5, End: 90, Conn: "c2", Op: "query", SQL: scat},
		{Name: "serving.handle", ID: 2, Parent: -1, Start: 10, End: 40, Conn: "pool", Op: "query", SQL: lo},
		{Name: "serving.handle", ID: 3, Parent: -1, Start: 11, End: 41, Conn: "pool", Op: "query", SQL: hi},
		{Name: "serving.handle", ID: 4, Parent: -1, Start: 12, End: 42, Conn: "pool", Op: "query", SQL: lo},
		{Name: "serving.handle", ID: 5, Parent: -1, Start: 13, End: 43, Conn: "pool", Op: "query", SQL: hi},
	}
	a = analyze(spans, []clientSpan{{local: "c1", start: 0, end: 100}, {local: "c2", start: 1, end: 95}})
	if len(a.hopUS) != 2 {
		t.Errorf("scatter: %d of 2 router spans linked to their shards", len(a.hopUS))
	}
}

// TestDecoratorsAreTransparent drives the same single-client schedule
// through an undecorated and a traced deployment: answers and the
// simulated cost per query must be identical.
func TestDecoratorsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four federations")
	}
	const parts, ops = 1500, 300
	for _, name := range []string{"hot-small", "plan-churn"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		drive := func(tr *tracer) (*tally, counters) {
			d, err := deploy(parts, false, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			if tr != nil {
				tr.enabled.Store(true)
			}
			c := dialClient(d.addr, w.newStream(parts, 5, 0))
			c0 := d.counters()
			tl := phase([]*client{c}, 0, ops, tr)
			cs := d.counters().sub(c0)
			c.close()
			if err := d.close(); err != nil {
				t.Fatal(err)
			}
			return tl, cs
		}
		plain, pc := drive(nil)
		tr := newTracer()
		traced, tc := drive(tr)
		if plain.failures() != 0 || traced.failures() != 0 {
			t.Fatalf("%s: failures plain=%d traced=%d", name, plain.failures(), traced.failures())
		}
		if len(plain.samples) == 0 || len(plain.samples) != len(traced.samples) {
			t.Fatalf("%s: %d plain samples, %d traced", name, len(plain.samples), len(traced.samples))
		}
		for i := range plain.samples {
			if plain.samples[i] != traced.samples[i] {
				t.Errorf("%s: sample %d differs: %+v vs %+v", name, i, plain.samples[i], traced.samples[i])
			}
		}
		ps, ts := pc.simMS/float64(plain.queries), tc.simMS/float64(traced.queries)
		if ps != ts {
			t.Errorf("%s: sim_ms_per_query %v undecorated, %v decorated", name, ps, ts)
		}
		if len(tr.snapshot()) == 0 {
			t.Errorf("%s: the traced deployment recorded no spans", name)
		}
	}
}

// TestTracedRoutedRunTiesEveryRequest drives two traced clients through
// the router at once: every request must be tied to its server spans and
// every router span to replica spans. Run it under -race: the tracer is
// shared by the clients, the router and both replicas.
func TestTracedRoutedRunTiesEveryRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two federations")
	}
	const parts = 1500
	tr := newTracer()
	d, err := deploy(parts, true, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.enabled.Store(true)
	clients := []*client{
		dialClient(d.addr, hotSmall(parts, 9, 0)),
		dialClient(d.addr, hotSmall(parts, 9, 1)),
	}
	tl := phase(clients, 0, 150, tr)
	tr.enabled.Store(false)
	for _, c := range clients {
		c.close()
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	if tl.failures() != 0 {
		t.Fatalf("%d failures", tl.failures())
	}
	a := analyze(tr.snapshot(), tl.spans)
	if a.requests != 300 || a.matched != a.requests {
		t.Errorf("tied %d of %d traced requests, want all 300", a.matched, a.requests)
	}
	if a.layerUS["unattributed"] != 0 || len(a.hopUS) != a.requests {
		t.Errorf("%d of %d router spans tied to replica spans", len(a.hopUS), a.requests)
	}
}
