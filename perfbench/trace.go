package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"clarens"
	"clarens/internal/core"
	"clarens/internal/rpc"
)

// The tracer times each layer from outside the program: client calls are
// wrapped where the benchmark makes them, and the server's dispatch
// pipeline gets one UseBefore stamp in front of every built-in stage plus
// one innermost Use stamp around the handler. Spans stay in memory and
// are written out when the run ends.

// stageNames are the dispatch pipeline's anchors, outermost first.
var stageNames = [...]string{
	clarens.AnchorRecover, clarens.AnchorTrace, clarens.AnchorShed, clarens.AnchorMetrics,
	clarens.AnchorStats, clarens.AnchorAuth, clarens.AnchorDeadline, clarens.AnchorACL,
}

// stamps is one per stage plus the handler stamp.
const stamps = len(stageNames) + 1

// spanLimit bounds the spans one traced run keeps; a run that fills the
// buffer ends early.
const spanLimit = 1 << 20

// span is one client-side span: an op or a call it made.
type span struct {
	id, parent, op int64
	name           string
	start, end     int64 // ns since the tracer's base
}

// dispatch is one server-side dispatch, top-level or a multicall
// sub-call, with the time each stamp was entered and left.
type dispatch struct {
	id, parent, op int64
	method         string
	depth          int
	enter, exit    [stamps]int64
	child          int64 // ns spent in nested sub-dispatches
	spanID         string
	parentSpanID   string
	traceID        string
}

// callRef is an in-flight client call, found by the trace ID it sent.
type callRef struct{ id, op int64 }

// captured is one top-level request and its reply, kept for the codec
// and dispatch replays.
type captured struct {
	protocol string
	req      *rpc.Request
	resp     *rpc.Response
	http     *http.Request
}

// tracer records spans. A nil tracer records nothing and costs nothing.
type tracer struct {
	base time.Time
	ids  atomic.Int64

	mu         sync.Mutex
	spans      []span
	dispatches []*dispatch
	live       map[*core.Context]*dispatch
	bySpan     map[string]*dispatch
	byTrace    map[string]callRef
	captures   map[string]*captured
	isFull     atomic.Bool
	paused     atomic.Bool // stamps pass straight through (replays)
	srv        *core.Server
}

func newTracer() *tracer {
	return &tracer{
		base:     time.Now(),
		live:     map[*core.Context]*dispatch{},
		bySpan:   map[string]*dispatch{},
		byTrace:  map[string]callRef{},
		captures: map[string]*captured{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// full reports whether the span buffer is exhausted.
func (t *tracer) full() bool { return t != nil && t.isFull.Load() }

// add appends client spans, marking the buffer full at the limit.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if len(t.spans)+stamps*len(t.dispatches) >= spanLimit {
		t.isFull.Store(true)
	}
	t.mu.Unlock()
}

// opRef is an op in flight; its span ID is also the op ID.
type opRef struct{ id, start int64 }

// beginOp opens an op span.
func (t *tracer) beginOp() opRef {
	if t == nil {
		return opRef{}
	}
	return opRef{id: t.ids.Add(1), start: t.now()}
}

// endOp closes an op span.
func (t *tracer) endOp(o opRef) {
	if t == nil {
		return
	}
	t.add(span{id: o.id, op: o.id, name: "op", start: o.start, end: t.now()})
}

// callHandle is a client call in flight.
type callHandle struct {
	id, op, start int64
	trace         string
}

// startCall opens a client.call span under o and returns the context
// to make the call with: it carries a fresh trace ID, which is how the
// server-side dispatch spans find their parent.
func (t *tracer) startCall(o opRef) (callHandle, context.Context) {
	if t == nil {
		return callHandle{}, context.Background()
	}
	h := callHandle{id: t.ids.Add(1), op: o.id, trace: clarens.NewTraceID()}
	t.mu.Lock()
	t.byTrace[h.trace] = callRef{id: h.id, op: h.op}
	t.mu.Unlock()
	h.start = t.now()
	return h, clarens.ContextWithTrace(context.Background(), h.trace)
}

// endCall closes a client.call span.
func (t *tracer) endCall(h callHandle) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	delete(t.byTrace, h.trace)
	t.mu.Unlock()
	t.add(span{id: h.id, parent: h.op, op: h.op, name: "client.call", start: h.start, end: end})
}

// instrument installs the stamps on srv. Call it before Start.
func (t *tracer) instrument(srv *core.Server) error {
	if t == nil {
		return nil
	}
	t.srv = srv
	for i, anchor := range stageNames {
		if err := srv.UseBefore(anchor, t.stamp(i)); err != nil {
			return err
		}
	}
	srv.Use(t.stamp(stamps - 1))
	return nil
}

// stamp returns the interceptor that times stamp i of every dispatch.
func (t *tracer) stamp(i int) core.Interceptor {
	return func(next core.Handler) core.Handler {
		return func(ctx *core.Context, p core.Params) (any, error) {
			if t.paused.Load() {
				return next(ctx, p)
			}
			d := t.enter(ctx, i)
			res, err := next(ctx, p)
			d.exit[i] = t.now()
			switch i {
			case stamps - 1:
				t.mu.Lock()
				delete(t.bySpan, d.spanID)
				t.mu.Unlock()
			case 0:
				t.finish(ctx, d, p, res, err)
			}
			return res, err
		}
	}
}

// enter finds (stamp 0: creates) ctx's dispatch record and stamps it.
func (t *tracer) enter(ctx *core.Context, i int) *dispatch {
	t.mu.Lock()
	d := t.live[ctx]
	if i == 0 {
		d = &dispatch{id: t.ids.Add(1), method: ctx.MethodName(), depth: ctx.CallDepth(), parentSpanID: ctx.ParentSpanID()}
		t.live[ctx] = d
	}
	if i == stamps-1 {
		// Span and trace IDs are assigned by now, by the trace stage or,
		// for sub-calls, by Invoke.
		d.spanID, d.traceID = ctx.SpanID(), ctx.TraceID()
		t.bySpan[d.spanID] = d
	}
	t.mu.Unlock()
	d.enter[i] = t.now()
	return d
}

// finish files a completed dispatch under its parent: the client call
// that sent it, or the dispatch whose handler invoked it.
func (t *tracer) finish(ctx *core.Context, d *dispatch, p core.Params, res any, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, ctx)
	if d.depth > 0 {
		if parent := t.bySpan[d.parentSpanID]; parent != nil {
			parent.child += d.exit[0] - d.enter[0]
			d.parent, d.op = parent.id, parent.op
		}
	} else if ref, ok := t.byTrace[d.traceID]; ok {
		d.parent, d.op = ref.id, ref.op
		t.capture(ctx, d.method, p, res, err)
	}
	t.dispatches = append(t.dispatches, d)
	if len(t.spans)+stamps*len(t.dispatches) >= spanLimit {
		t.isFull.Store(true)
	}
}

// capture keeps the first top-level call of each kind for the replays.
// A multicall's kind includes its first sub-call's method.
func (t *tracer) capture(ctx *core.Context, method string, p core.Params, res any, err error) {
	key := method
	if method == rpc.MulticallMethod {
		if entries, f := rpc.MulticallEntries(p); f == nil && len(entries) > 0 {
			if sc, f := rpc.ParseSubCall(entries[0]); f == nil {
				key += "/" + sc.Method
			}
		}
	}
	if t.captures[key] != nil || ctx.HTTPRequest() == nil {
		return
	}
	resp := &rpc.Response{ID: 1, Result: res}
	if err != nil {
		resp = &rpc.Response{ID: 1, Fault: &rpc.Fault{Code: rpc.CodeApplication, Message: err.Error()}}
		if f, ok := err.(*rpc.Fault); ok {
			resp.Fault = f
		}
	}
	t.captures[key] = &captured{
		protocol: ctx.Protocol,
		req:      &rpc.Request{Method: method, Params: p, ID: 1},
		resp:     resp,
		http:     ctx.HTTPRequest(),
	}
}

// layers sums the traced run's spans into per-op layer times.
type layers struct {
	ops        int
	calls      int
	callNs     int64 // client.call
	dispatchNs int64 // top-level core.dispatch
	stageNs    [len(stageNames)]int64
	handlerNs  int64 // handler self time, sub-dispatches excluded
	byMethod   map[string]int64
	dispatches int
}

// sum folds the recorded spans into layer totals.
func (t *tracer) sum(ops int) layers {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := layers{ops: ops, byMethod: map[string]int64{}}
	for _, s := range t.spans {
		if s.name == "client.call" {
			l.calls++
			l.callNs += s.end - s.start
		}
	}
	for _, d := range t.dispatches {
		if d.enter[stamps-1] == 0 {
			continue // ended before the handler (a refused call)
		}
		l.dispatches++
		if d.depth == 0 {
			l.dispatchNs += d.exit[0] - d.enter[0]
		}
		for i := range stageNames {
			l.stageNs[i] += (d.enter[i+1] - d.enter[i]) + (d.exit[i] - d.exit[i+1])
		}
		h := d.exit[stamps-1] - d.enter[stamps-1]
		l.handlerNs += h - d.child
		l.byMethod[d.method] += h
	}
	return l
}

// perOpUs converts a total in ns to µs per op.
func (l layers) perOpUs(ns int64) float64 {
	if l.ops == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(l.ops)
}

// reset drops what the warm-up recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dispatches = nil, nil
	t.mu.Unlock()
}

// writeSpans dumps every span as CSV: id, parent, op, name, start and
// end in ns since the run began, and the method for dispatch spans.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,name,start_ns,end_ns,method")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	for _, d := range t.dispatches {
		fmt.Fprintf(w, "%d,%d,%d,core.dispatch,%d,%d,%s\n", d.id, d.parent, d.op, d.enter[0], d.exit[0], d.method)
		parent := fmt.Sprint(d.id)
		for i := 0; i < stamps; i++ {
			if d.enter[i] == 0 {
				break
			}
			name := "core.handler"
			if i < len(stageNames) {
				name = "core.stage." + stageNames[i]
			}
			id := fmt.Sprintf("%d.%d", d.id, i)
			fmt.Fprintf(w, "%s,%s,%d,%s,%d,%d,%s\n", id, parent, d.op, name, d.enter[i], d.exit[i], d.method)
			parent = id
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
