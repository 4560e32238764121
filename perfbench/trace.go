package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/algebra"
	"disco/internal/mediator"
	"disco/internal/proto"
	"disco/internal/serving"
	"disco/internal/wrapper"
)

// tracer keeps the spans of a traced run in memory. Spans are recorded
// from the benchmark's own decorators around the program's public seams
// (serving.Handler, wrapper.Wrapper, the mediator's Prepare, ExecutePlan,
// Explain and Register); the program itself is not instrumented.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span
	// plans remembers every prepared plan seen: a plan-cache hit hands
	// back a pointer already in the set, so novelty marks a fresh prepare.
	plans map[*mediator.Prepared]struct{}

	// conns maps a serving goroutine to the peer address of the
	// connection it serves (recorded by tracedConn on its first read);
	// active maps a goroutine to the mediator.execute span it is inside,
	// so wrapper calls find their parent.
	conns  sync.Map // goroutine id → string
	active sync.Map // goroutine id → int
}

// span is one timed call. Times are ns since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a server root
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Conn is the peer address of a root span's connection: a client's
	// local address, or a router's pooled connection.
	Conn string `json:"conn,omitempty"`
	Op   string `json:"op,omitempty"`
	SQL  string `json:"sql,omitempty"`
	// Rows counts the rows a wrapper call returned.
	Rows int `json:"rows,omitempty"`
	// Fresh marks a prepare or explain that ran the optimizer; Plans is
	// the number of candidate plans it costed.
	Fresh bool `json:"fresh,omitempty"`
	Plans int  `json:"plans,omitempty"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), plans: make(map[*mediator.Prepared]struct{})}
}

// on reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

func (t *tracer) begin(name string, parent int) int {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id; set, when non-nil, fills in its attributes.
func (t *tracer) end(id int, set func(*span)) {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if set != nil {
		set(s)
	}
}

// fresh records p and reports whether it had not been seen before.
func (t *tracer) fresh(p *mediator.Prepared) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.plans[p]; ok {
		return false
	}
	t.plans[p] = struct{}{}
	return true
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans and the client-side request spans as JSON
// lines.
func (t *tracer) write(path string, clients []clientSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range clients {
		if err := enc.Encode(span{Name: "client", Parent: -1, Start: c.start, End: c.end, Conn: c.local, Op: c.op, SQL: c.sql}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 42 [running]:"). Used only while tracing, to tie wrapper
// calls and connections to the request a goroutine is serving.
func goid() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// tracedListener hands out connections that tell the tracer which
// goroutine serves them.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr}, nil
}

type tracedConn struct {
	net.Conn
	tr     *tracer
	mapped bool // only the serving goroutine reads, so no lock
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if !c.mapped {
		c.tr.conns.Store(goid(), c.RemoteAddr().String())
		c.mapped = true
	}
	return c.Conn.Read(p)
}

// tracedWrapper times every subplan a wrapper executes.
type tracedWrapper struct {
	wrapper.Wrapper
	tr *tracer
}

func (w *tracedWrapper) Execute(plan *algebra.Node) (*wrapper.Result, error) {
	if !w.tr.on() {
		return w.Wrapper.Execute(plan)
	}
	parent := -1
	if v, ok := w.tr.active.Load(goid()); ok {
		parent = v.(int)
	}
	id := w.tr.begin("wrapper.execute", parent)
	res, err := w.Wrapper.Execute(plan)
	w.tr.end(id, func(s *span) {
		if res != nil {
			s.Rows = len(res.Rows)
		}
	})
	return res, err
}

// decorateWrappers re-registers every wrapper of fed behind a
// tracedWrapper and returns the decorated set by name.
func decorateWrappers(fed *serving.Federation, tr *tracer) (map[string]wrapper.Wrapper, error) {
	out := make(map[string]wrapper.Wrapper)
	for _, name := range demoWrappers {
		w, ok := fed.Med.Wrapper(name)
		if !ok {
			return nil, fmt.Errorf("wrapper %q not registered", name)
		}
		tw := &tracedWrapper{Wrapper: w, tr: tr}
		if err := fed.Med.Register(tw); err != nil {
			return nil, err
		}
		out[name] = tw
	}
	return out, nil
}

// tracedServer is the serving.Handler a traced replica mounts instead of
// serving.Server. It serves query as Prepare then ExecutePlan, followed
// by the row encoding serving.Server.Handle does, timing each step; it
// re-registers the decorated wrappers on reregister; everything else
// goes to the server unchanged.
type tracedServer struct {
	srv      *serving.Server
	wrappers map[string]wrapper.Wrapper
	tr       *tracer
}

func (h *tracedServer) Handle(req *proto.Request) *proto.Response {
	if req.Op == "reregister" {
		// Always, traced window or not: the mediator must keep the
		// decorated wrappers registered.
		return h.root(req, h.reregister)
	}
	if !h.tr.on() {
		return h.srv.Handle(req)
	}
	switch req.Op {
	case "query":
		return h.root(req, h.query)
	case "explain":
		return h.root(req, h.explain)
	case "setlink":
		return h.root(req, func(req *proto.Request, root int) *proto.Response {
			id := h.tr.begin("catalog.setlink", root)
			defer h.tr.end(id, nil)
			return h.srv.Handle(req)
		})
	}
	return h.srv.Handle(req)
}

// root times a whole request as a "serving.handle" span when tracing.
func (h *tracedServer) root(req *proto.Request, serve func(*proto.Request, int) *proto.Response) *proto.Response {
	if !h.tr.on() {
		return serve(req, -1)
	}
	return timedRoot(h.tr, "serving.handle", req, func(root int) *proto.Response { return serve(req, root) })
}

// timedRoot records a server-side root span around serve, tagged with
// the connection the calling goroutine serves.
func timedRoot(tr *tracer, name string, req *proto.Request, serve func(root int) *proto.Response) *proto.Response {
	conn, _ := tr.conns.Load(goid())
	id := tr.begin(name, -1)
	resp := serve(id)
	tr.end(id, func(s *span) {
		s.Conn, _ = conn.(string)
		s.Op, s.SQL = req.Op, req.SQL
	})
	return resp
}

func (h *tracedServer) query(req *proto.Request, root int) *proto.Response {
	med := h.srv.Federation().Med
	id := h.tr.begin("mediator.prepare", root)
	p, err := med.Prepare(req.SQL)
	fresh := err == nil && h.tr.fresh(p)
	h.tr.end(id, func(s *span) {
		if fresh {
			s.Fresh, s.Plans = true, p.PlansCosted
		}
	})
	if err != nil {
		return errorResponse(err)
	}
	gid := goid()
	id = h.tr.begin("mediator.execute", root)
	h.tr.active.Store(gid, id)
	res, err := med.ExecutePlan(p)
	h.tr.active.Delete(gid)
	h.tr.end(id, nil)
	if err != nil {
		return errorResponse(err)
	}
	id = h.tr.begin("serving.encode", root)
	defer h.tr.end(id, nil)
	resp := &proto.Response{OK: true, ElapsedMS: res.ElapsedMS, Partial: res.Partial, Excluded: res.Excluded}
	for i := 0; i < res.Schema.Len(); i++ {
		resp.Columns = append(resp.Columns, res.Schema.Field(i).QualifiedName())
	}
	for _, row := range res.Rows {
		resp.Rows = append(resp.Rows, proto.EncodeRow(row))
	}
	return resp
}

func (h *tracedServer) explain(req *proto.Request, root int) *proto.Response {
	id := h.tr.begin("mediator.explain", root)
	out, err := h.srv.Federation().Med.Explain(req.SQL)
	h.tr.end(id, func(s *span) { s.Fresh, s.Plans = true, explainedPlans(out) })
	if err != nil {
		return errorResponse(err)
	}
	return &proto.Response{OK: true, Text: out}
}

func (h *tracedServer) reregister(req *proto.Request, root int) *proto.Response {
	w, ok := h.wrappers[req.Arg]
	if !ok {
		return &proto.Response{Error: fmt.Sprintf("serving: unknown wrapper %q", req.Arg)}
	}
	med := h.srv.Federation().Med
	id := -1
	if h.tr.on() {
		id = h.tr.begin("catalog.reregister", root)
	}
	err := med.Register(w)
	if id >= 0 {
		h.tr.end(id, nil)
	}
	if err != nil {
		return errorResponse(err)
	}
	return &proto.Response{OK: true, Text: fmt.Sprintf("reregistered %q (epoch %d)", req.Arg, med.Stats().Epoch)}
}

// errorResponse mirrors serving.Server's rendering of a failed request.
func errorResponse(err error) *proto.Response {
	return &proto.Response{Error: err.Error(), Overloaded: errors.Is(err, mediator.ErrOverloaded)}
}

// explainedPlans reads the candidate count from Explain's header line
// ("-- estimated TotalTime: … ms (N candidate estimations)").
func explainedPlans(text string) int {
	head, _, ok := strings.Cut(text, " candidate estimations)")
	if !ok {
		return 0
	}
	n, _ := strconv.Atoi(head[strings.LastIndexByte(head, '(')+1:])
	return n
}

// tracedRouter times the router's Handle as a "router.handle" span; the
// replica spans inside it are tied to it after the run (see analyze).
type tracedRouter struct {
	inner serving.Handler
	tr    *tracer
}

func (h *tracedRouter) Handle(req *proto.Request) *proto.Response {
	if !h.tr.on() || !tracedOp(req.Op) {
		return h.inner.Handle(req)
	}
	return timedRoot(h.tr, "router.handle", req, func(int) *proto.Response { return h.inner.Handle(req) })
}

func tracedOp(op string) bool {
	switch op {
	case "query", "explain", "reregister", "setlink":
		return true
	}
	return false
}
