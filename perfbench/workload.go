package main

import (
	"fmt"
	"math/rand"

	"disco/internal/loadgen"
)

// request is one generated client operation, sent as a proto.Request.
type request struct {
	op  string // protocol op: query, explain, reregister or setlink
	sql string
	arg string
}

// stream yields one client's requests in order. Each client owns its
// stream, so the sequence a client sends depends only on the seed and
// the client index, never on goroutine interleaving.
type stream interface {
	next() request
}

// workload is one named traffic mix.
type workload struct {
	name string
	// routed puts the in-process router in front of one replica per
	// client instead of serving from a single mediator.
	routed bool
	// newStream builds client c's request stream for a seed.
	newStream func(parts int, seed int64, c int) stream
}

// workloads lists the benchmark's traffic mixes; README.md records why
// each exists and which layers it should move.
var workloads = []workload{
	{name: "hot-small", newStream: hotSmall},
	{name: "bulk-rows", newStream: bulkRows},
	{name: "plan-churn", newStream: planChurn},
	{name: "routed-hot", routed: true, newStream: hotSmall},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Hot-pool shape shared by the query-only workloads: a 32-statement pool
// with zipf(1.3) popularity, as in loadgen's defaults.
const (
	hotPool = 32
	zipfS   = 1.3
)

// smallTemplates are the demo templates whose answers are a few rows.
func smallTemplates(parts int) []loadgen.Template {
	return pickTemplates(parts, "supplier-region", "parts-point", "join-inspect-supplier", "group-regions")
}

func pickTemplates(parts int, names ...string) []loadgen.Template {
	var out []loadgen.Template
	for _, name := range names {
		for _, t := range loadgen.DemoTemplates(parts) {
			if t.Name == name {
				out = append(out, t)
			}
		}
	}
	if len(out) != len(names) {
		panic(fmt.Sprintf("perfbench: demo templates changed: want %v", names))
	}
	return out
}

// clientRNG derives client c's generator from the seed (SplitMix64
// finalizer, so adjacent clients get uncorrelated streams). Client -1
// draws the shared hot pool.
func clientRNG(seed int64, c int) *rand.Rand {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(c+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z &^ (1 << 63))))
}

func instantiate(rng *rand.Rand, t loadgen.Template) string {
	return t.Instantiate(t.ArgLo + rng.Intn(max(1, t.ArgHi-t.ArgLo)))
}

// pooled draws from a hot pool shared by every client with probability
// hot, and otherwise instantiates a random template with a fresh literal.
type pooled struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	pool []string
	tpls []loadgen.Template
	hot  float64
}

func newPooled(seed int64, c int, tpls []loadgen.Template, hot float64) *pooled {
	// Pool entry i instantiates template i mod len(tpls), so the rank a
	// template holds in the zipf order is the same for every seed; only
	// the literals change.
	poolRNG := clientRNG(seed, -1)
	pool := make([]string, hotPool)
	for i := range pool {
		pool[i] = instantiate(poolRNG, tpls[i%len(tpls)])
	}
	rng := clientRNG(seed, c)
	return &pooled{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, hotPool-1),
		pool: pool,
		tpls: tpls,
		hot:  hot,
	}
}

func (g *pooled) next() request {
	if g.rng.Float64() < g.hot {
		return request{op: "query", sql: g.pool[g.zipf.Uint64()]}
	}
	return request{op: "query", sql: instantiate(g.rng, g.tpls[g.rng.Intn(len(g.tpls))])}
}

// hotSmall: 95% hot-pool queries over the small-result templates.
func hotSmall(parts int, seed int64, c int) stream {
	return newPooled(seed, c, smallTemplates(parts), 0.95)
}

// bulkRows: queries returning hundreds of rows, 70% hot.
func bulkRows(parts int, seed int64, c int) stream {
	return newPooled(seed, c, []loadgen.Template{
		{Name: "inspections-scan", Pattern: `SELECT part, passed FROM Inspections WHERE part < %d`, ArgLo: parts / 2, ArgHi: parts + 1},
		{Name: "parts-range", Pattern: `SELECT x, y FROM AtomicParts WHERE AtomicParts.id < %d`, ArgLo: 700, ArgHi: 1401},
	}, 0.7)
}

// crossJoins are the 3- to 5-way joins over all three sources that
// plan-churn explains: oo7 (AtomicParts, CompositeParts, Documents),
// the inspection file and the supplier table.
func crossJoins(parts int) []loadgen.Template {
	return []loadgen.Template{
		{Name: "parts-docs-inspections", Pattern: `SELECT title, passed FROM AtomicParts, Documents, Inspections WHERE docId = Documents.id AND AtomicParts.id = part AND AtomicParts.id < %d`, ArgLo: 50, ArgHi: parts / 10},
		{Name: "parts-inspections-suppliers", Pattern: `SELECT sname, x FROM AtomicParts, Inspections, Suppliers WHERE AtomicParts.id = part AND part = sid AND region = %d`, ArgLo: 0, ArgHi: 12},
		{Name: "parts-docs-inspections-suppliers", Pattern: `SELECT title, sname FROM AtomicParts, Documents, Inspections, Suppliers WHERE docId = Documents.id AND AtomicParts.id = part AND part = sid AND AtomicParts.id < %d`, ArgLo: 50, ArgHi: 500},
		{Name: "parts-composites-docs-inspections", Pattern: `SELECT CompositeParts.id, title FROM AtomicParts, CompositeParts, Documents, Inspections WHERE partOf = CompositeParts.id AND docId = Documents.id AND AtomicParts.id = part AND AtomicParts.id < %d`, ArgLo: 50, ArgHi: parts / 10},
		{Name: "five-way", Pattern: `SELECT title, sname, passed FROM AtomicParts, CompositeParts, Documents, Inspections, Suppliers WHERE partOf = CompositeParts.id AND docId = Documents.id AND AtomicParts.id = part AND part = sid AND AtomicParts.id < %d`, ArgLo: 50, ArgHi: 500},
	}
}

// Per-10000 weights of plan-churn's operations; the rest are executed
// small queries with fresh literals. The weights keep each percentile
// inside one latency mode rather than on the cliff between two, where it
// would jump between modes from run to run:
//   - explains take milliseconds, executed small queries a fraction of
//     one; with 55% explains the median falls inside the explain mode;
//   - re-registering oo7 takes tens of milliseconds and stalls the other
//     client's request behind the write lock. With 250 re-registrations,
//     a third of them oo7, those stalls are about 1.7% of all operations,
//     so p99 falls inside their mode.
const (
	churnExplain    = 5500
	churnReregister = 250
	churnSetLink    = 50
)

// churnLinkMS is the menu of link latencies plan-churn's setlink writes
// choose from. It stays close to the default 10 ms link so that the
// simulated cost per query does not depend on which writes a seed drew.
var churnLinkMS = []int{8, 10, 12}

var demoWrappers = []string{"oo7", "suppliers", "inspections"}

type churn struct {
	rng   *rand.Rand
	joins []loadgen.Template
	small []loadgen.Template
}

// planChurn: every statement is ad hoc; 55% are explains of cross-source
// joins, 3% are catalog writes, the rest execute with fresh literals.
func planChurn(parts int, seed int64, c int) stream {
	return &churn{rng: clientRNG(seed, c), joins: crossJoins(parts), small: smallTemplates(parts)}
}

func (g *churn) next() request {
	roll := g.rng.Intn(10000)
	switch {
	case roll < churnExplain:
		return request{op: "explain", sql: instantiate(g.rng, g.joins[g.rng.Intn(len(g.joins))])}
	case roll < churnExplain+churnReregister:
		return request{op: "reregister", arg: demoWrappers[g.rng.Intn(len(demoWrappers))]}
	case roll < churnExplain+churnReregister+churnSetLink:
		w := demoWrappers[g.rng.Intn(len(demoWrappers))]
		return request{op: "setlink", arg: fmt.Sprintf("%s %d 0.0005", w, churnLinkMS[g.rng.Intn(len(churnLinkMS))])}
	default:
		return request{op: "query", sql: instantiate(g.rng, g.small[g.rng.Intn(len(g.small))])}
	}
}
