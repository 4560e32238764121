package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"disco/internal/loadgen"
	"disco/internal/proto"
	"disco/internal/sqlparser"
)

// requestTimeout bounds one round trip; a request that exceeds it loses
// the client's connection and counts as failed.
const requestTimeout = 5 * time.Second

// sampleEvery marks every n-th query of a client for the oracle check.
const sampleEvery = 16

// client is one closed-loop caller: it sends its next request only after
// the previous reply arrived, like discoctl, apps and the router's
// per-connection pool.
type client struct {
	conn    net.Conn
	r       *proto.Reader
	s       stream
	local   string // local address; links server spans in traced runs
	queries int
	lost    error // set once the connection failed; no more sends
}

func dialClient(addr string, s stream) *client {
	c := &client{s: s}
	conn, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		c.lost = fmt.Errorf("dial %s: %w", addr, err)
		return c
	}
	c.conn, c.r, c.local = conn, proto.NewReader(conn), conn.LocalAddr().String()
	return c
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// sample is one answer kept for the oracle: the statement and the
// order-independent digest of its rows.
type sample struct {
	sql  string
	hash uint64
}

// tally is what a phase of closed-loop traffic produced.
type tally struct {
	// ops holds one record per scheduled operation. Every failure,
	// including operations a lost client never sent, has latency +Inf.
	ops     []op
	ok      int
	queries int // successful query operations
	shed    int
	errs    int // error replies
	wrong   int // partial query answers and empty explain replies
	unsent  int // operations a lost client could not send
	lost    []string
	samples []sample
	// spans are the client side of traced requests (nil when untraced).
	spans []clientSpan
	// parse holds sqlparser.Parse timings in µs (traced only).
	parse   []float64
	elapsed time.Duration
}

// op is one scheduled operation: when it ended, in seconds from the
// phase start, and its client-observed latency in µs.
type op struct {
	at, lat float64
}

func (t *tally) scheduled() int { return len(t.ops) }

// failures counts every scheduled operation that did not succeed; each
// lost connection also failed the one request in flight.
func (t *tally) failures() int { return t.shed + t.errs + t.wrong + t.unsent + len(t.lost) }

func (t *tally) merge(o *tally) {
	t.ops = append(t.ops, o.ops...)
	t.ok += o.ok
	t.queries += o.queries
	t.shed += o.shed
	t.errs += o.errs
	t.wrong += o.wrong
	t.unsent += o.unsent
	t.lost = append(t.lost, o.lost...)
	t.samples = append(t.samples, o.samples...)
	t.spans = append(t.spans, o.spans...)
	t.parse = append(t.parse, o.parse...)
}

// clientSpan is one traced request as the client saw it.
type clientSpan struct {
	local      string
	start, end int64 // ns on the tracer clock
	op, sql    string
}

// phase runs every client against the deployment, either for dur (when
// ops is 0) or for ops requests per client, and merges their tallies.
func phase(clients []*client, dur time.Duration, ops int, tr *tracer) *tally {
	parts := make([]tally, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, out *tally) {
			defer wg.Done()
			c.run(start, deadline, ops, tr, out)
		}(c, &parts[i])
	}
	wg.Wait()
	total := &tally{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// run plays the client's stream until the deadline or ops requests.
// When the connection fails, the rest of the phase's share is counted
// as unsent: for a timed phase by extrapolating the client's own rate
// (or, with nothing sent, one operation per remaining request timeout).
func (c *client) run(start, deadline time.Time, ops int, tr *tracer, out *tally) {
	sent := 0
	for c.lost == nil {
		if ops > 0 && sent >= ops {
			return
		}
		if ops == 0 && !time.Now().Before(deadline) {
			return
		}
		c.one(c.s.next(), start, tr, out)
		sent++
	}
	switch {
	case ops > 0:
		out.unsent += ops - sent
	case time.Now().Before(deadline):
		remaining := time.Until(deadline)
		elapsed := time.Since(start)
		n := int(math.Ceil(remaining.Seconds() / requestTimeout.Seconds()))
		if sent > 0 && elapsed > 0 {
			n = int(math.Ceil(float64(sent) * remaining.Seconds() / elapsed.Seconds()))
		}
		out.unsent += n
	}
	end := time.Since(start).Seconds()
	for i := 0; i < out.unsent; i++ {
		out.ops = append(out.ops, op{at: end, lat: failed})
	}
}

// one sends a request, waits for its reply and classifies the outcome.
func (c *client) one(req request, start time.Time, tr *tracer, out *tally) {
	if tr.on() && req.sql != "" {
		t0 := time.Now()
		_, _ = sqlparser.Parse(req.sql) // timed only; the server parses again
		out.parse = append(out.parse, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	t0 := time.Now()
	_ = c.conn.SetDeadline(t0.Add(requestTimeout))
	resp, err := c.roundTrip(req)
	t1 := time.Now()
	if err != nil {
		c.lost = fmt.Errorf("%s %q: %w", req.op, req.sql+req.arg, err)
		out.lost = append(out.lost, c.lost.Error())
		out.ops = append(out.ops, op{at: t1.Sub(start).Seconds(), lat: failed})
		return
	}
	if tr.on() {
		out.spans = append(out.spans, clientSpan{local: c.local, start: tr.at(t0), end: tr.at(t1), op: req.op, sql: req.sql})
	}
	switch {
	case resp.Overloaded:
		out.shed++
	case !resp.OK:
		out.errs++
	case req.op == "query" && resp.Partial, req.op == "explain" && resp.Text == "":
		out.wrong++
	default:
		out.ok++
		out.ops = append(out.ops, op{at: t1.Sub(start).Seconds(), lat: float64(t1.Sub(t0).Nanoseconds()) / 1e3})
		if req.op == "query" {
			out.queries++
			c.queries++
			if c.queries%sampleEvery == 0 {
				out.samples = append(out.samples, sample{sql: req.sql, hash: loadgen.HashRows(resp.Rows)})
			}
		}
		return
	}
	out.ops = append(out.ops, op{at: t1.Sub(start).Seconds(), lat: failed})
}

func (c *client) roundTrip(req request) (*proto.Response, error) {
	if err := proto.Write(c.conn, &proto.Request{Op: req.op, SQL: req.sql, Arg: req.arg}); err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	resp, err := c.r.ReadResponse()
	if err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	return resp, nil
}
