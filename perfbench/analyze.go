package main

import (
	"sort"
	"strings"

	"disco/internal/sqlparser"
)

// Layers a traced request's wall time is split into. Each is the self
// time of one span kind (its duration minus the part its children
// cover), except proto.wire: the client round trip minus the outermost
// server span, i.e. encoding, decoding and the loopback socket.
var layers = []struct{ layer, span string }{
	{"proto.wire", ""},
	{"router", "router.handle"},
	{"serving", "serving.handle"},
	{"mediator.prepare", "mediator.prepare"},
	{"engine", "mediator.execute"},
	{"wrapper", "wrapper.execute"},
	{"serving.encode", "serving.encode"},
	{"mediator.explain", "mediator.explain"},
	{"catalog.reregister", "catalog.reregister"},
	{"catalog.setlink", "catalog.setlink"},
}

func layerOf(spanName string) string {
	for _, l := range layers {
		if l.span == spanName {
			return l.layer
		}
	}
	return "other"
}

// analysis is what the spans of a traced run add up to. Durations are µs.
type analysis struct {
	requests int     // traced client requests
	matched  int     // requests tied to a server span
	rttUS    float64 // summed client round trips of all traced requests
	layerUS  map[string]float64

	wire, engineSelf, wrapperUS, prepareUS, explainUS, reregisterUS, hopUS []float64

	executes, wrapperCalls, wrapperRows int
	orphanCalls                         int // wrapper calls outside any traced execution
	plans                               []float64
}

// analyze ties spans into request trees and attributes each traced
// client request's round trip to layers. Server root spans are tied to
// the client request whose connection and interval contain them; behind
// a router, replica spans are tied to the router span that contains them
// and carries the same statement (or, for a scatter, one of its shards).
func analyze(spans []span, clients []clientSpan) *analysis {
	a := &analysis{layerUS: make(map[string]float64)}
	children := make([][]int, len(spans))
	byConn := make(map[string][]int) // client spans per connection, by start
	for i, c := range clients {
		byConn[c.local] = append(byConn[c.local], i)
	}
	for _, idx := range byConn {
		sort.Slice(idx, func(x, y int) bool { return clients[idx[x]].start < clients[idx[y]].start })
	}
	var routerRoots, replicaRoots []int
	top := make(map[int]int) // client span → outermost server span
	for i, s := range spans {
		switch {
		case s.Parent >= 0:
			children[s.Parent] = append(children[s.Parent], i)
		case s.Name == "wrapper.execute":
			a.orphanCalls++
		case s.Name == "router.handle" || s.Name == "serving.handle":
			idx, ok := byConn[s.Conn]
			if !ok {
				replicaRoots = append(replicaRoots, i)
				continue
			}
			if s.Name == "router.handle" {
				routerRoots = append(routerRoots, i)
			}
			// The last request on this connection that started before
			// the server span; closed-loop clients have one in flight.
			k := sort.Search(len(idx), func(k int) bool { return clients[idx[k]].start > s.Start }) - 1
			if k >= 0 && clients[idx[k]].end >= s.End {
				top[idx[k]] = i
			}
		}
	}
	linkReplicas(spans, children, routerRoots, replicaRoots)

	self := func(i int) float64 {
		s := spans[i]
		return float64(s.End-s.Start-covered(spans, s, children[i])) / 1e3
	}
	for j, c := range clients {
		rtt := float64(c.end-c.start) / 1e3
		a.requests++
		a.rttUS += rtt
		root, ok := top[j]
		if !ok {
			continue
		}
		a.matched++
		wire := rtt - float64(spans[root].End-spans[root].Start)/1e3
		a.wire = append(a.wire, wire)
		a.layerUS["proto.wire"] += wire
		// Children that ran in parallel (scatter shards) share the
		// interval they cover in proportion to their durations, so a
		// request's layers add up to its round trip.
		type visit struct {
			i     int
			share float64
		}
		stack := []visit{{root, 1}}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			kids := children[v.i]
			layer := layerOf(spans[v.i].Name)
			if layer == "router" && len(kids) == 0 {
				// Every routed request reaches a replica; a router span
				// not tied to one cannot be split and stays unattributed.
				layer = "unattributed"
			}
			a.layerUS[layer] += v.share * self(v.i)
			var sum int64
			for _, k := range kids {
				sum += spans[k].End - spans[k].Start
			}
			share := v.share
			if cov := covered(spans, spans[v.i], kids); sum > cov {
				share *= float64(cov) / float64(sum)
			}
			for _, k := range kids {
				stack = append(stack, visit{k, share})
			}
		}
	}

	for i, s := range spans {
		dur := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "mediator.execute":
			a.executes++
			a.engineSelf = append(a.engineSelf, self(i))
		case "wrapper.execute":
			if s.Parent >= 0 {
				a.wrapperCalls++
				a.wrapperRows += s.Rows
				a.wrapperUS = append(a.wrapperUS, dur)
			}
		case "mediator.prepare":
			a.prepareUS = append(a.prepareUS, dur)
		case "mediator.explain":
			a.explainUS = append(a.explainUS, dur)
		case "catalog.reregister":
			a.reregisterUS = append(a.reregisterUS, dur)
		case "router.handle":
			if len(children[i]) > 0 {
				a.hopUS = append(a.hopUS, self(i))
			}
		}
		if s.Fresh {
			a.plans = append(a.plans, float64(s.Plans))
		}
	}
	return a
}

// linkReplicas makes each replica root span a child of the router span
// that forwarded it: the router span must contain it in time and carry
// the same op and statement, or, for a scatter, a statement that is the
// router's statement with a partition bound appended.
func linkReplicas(spans []span, children [][]int, routerRoots, replicaRoots []int) {
	if len(routerRoots) == 0 {
		return
	}
	sort.Slice(replicaRoots, func(x, y int) bool { return spans[replicaRoots[x]].Start < spans[replicaRoots[y]].Start })
	// Router spans that end first choose first, each taking the
	// earliest-starting candidates: a later-ending router span can use
	// any candidate an earlier one could, except those starting before
	// it. This pairs identical concurrent statements without stranding one.
	sort.Slice(routerRoots, func(x, y int) bool { return spans[routerRoots[x]].End < spans[routerRoots[y]].End })
	claimed := make([]bool, len(replicaRoots))
	rendered := make(map[string]string)
	for _, ri := range routerRoots {
		r := spans[ri]
		shardPrefix, ok := rendered[r.SQL]
		if !ok {
			if q, err := sqlparser.Parse(r.SQL); err == nil {
				shardPrefix = q.String()
			}
			rendered[r.SQL] = shardPrefix
		}
		first := sort.Search(len(replicaRoots), func(k int) bool { return spans[replicaRoots[k]].Start >= r.Start })
		var shards []int
		shardSeen := make(map[string]bool) // one span per shard statement
		exact := -1
		for k := first; k < len(replicaRoots) && spans[replicaRoots[k]].Start <= r.End; k++ {
			s := spans[replicaRoots[k]]
			if claimed[k] || s.End > r.End || s.Op != r.Op {
				continue
			}
			if s.SQL == r.SQL {
				exact = k
				break
			}
			if shardPrefix != "" && !shardSeen[s.SQL] && (strings.HasPrefix(s.SQL, shardPrefix+" AND ") || strings.HasPrefix(s.SQL, shardPrefix+" WHERE ")) {
				shardSeen[s.SQL] = true
				shards = append(shards, k)
			}
		}
		if exact >= 0 {
			shards = []int{exact}
		}
		for _, k := range shards {
			claimed[k] = true
			children[ri] = append(children[ri], replicaRoots[k])
		}
	}
}

// covered is how much of s's interval its children's intervals cover,
// counting overlapping children once.
func covered(spans []span, s span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].lo < ivs[y].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
			continue
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
