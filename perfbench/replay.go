package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clarens"
	"clarens/internal/rpc"
	"clarens/internal/rpc/jsonrpc"
	"clarens/internal/rpc/xmlrpc"
)

// mixItem is one kind of captured call and how many of it make one op.
type mixItem struct {
	key      string // method, or "system.multicall/<first sub-method>"; a prefix matches
	perOp    float64
	dispatch bool // replay it through core.Server.Dispatch too (no side effects)
}

// codecSteps are the four codec calls one RPC makes, in wire order.
var codecSteps = [...]string{"encode_request", "decode_request", "encode_response", "decode_response"}

// replayed is the per-op cost of the captured calls, replayed alone.
type replayed struct {
	codec          string
	ns, allocs     [len(codecSteps)]float64
	dispatchAllocs float64
	dispatched     bool
}

// benchFunc measures f's time and allocations per call, repeating it for
// about 100 ms.
func benchFunc(f func()) (ns, allocs float64) {
	start := time.Now()
	f()
	one := time.Since(start)
	n := int(math.Ceil(float64(100*time.Millisecond) / math.Max(float64(one), 1)))
	n = min(max(n, 20), 200000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// find returns the first capture whose key starts with prefix.
func (t *tracer) find(prefix string) *captured {
	keys := make([]string, 0, len(t.captures))
	for k := range t.captures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.HasPrefix(k, prefix) {
			return t.captures[k]
		}
	}
	return nil
}

// replayDispatch runs each side-effect-free captured request through
// core.Server.Dispatch with its original HTTP request (minus the trace
// header the traced run added), with the stamps paused so only the
// program allocates. Call it while the server is up.
func (t *tracer) replayDispatch(mix []mixItem, r *replayed) error {
	t.paused.Store(true)
	defer t.paused.Store(false)
	for _, m := range mix {
		if !m.dispatch {
			continue
		}
		c := t.find(m.key)
		if c == nil {
			return fmt.Errorf("replay: no %s call was captured", m.key)
		}
		hr := c.http.Clone(context.Background())
		hr.Header.Del(clarens.TraceHeader)
		var fault *rpc.Fault
		_, allocs := benchFunc(func() {
			if resp := t.srv.Dispatch(hr, c.protocol, c.req); resp.Fault != nil {
				fault = resp.Fault
			}
		})
		if fault != nil {
			return fmt.Errorf("replay: dispatch %s: %v", m.key, fault)
		}
		r.dispatchAllocs += m.perOp * allocs
		r.dispatched = true
	}
	return nil
}

// replayCodec re-encodes each captured call into its wire bytes and
// times the four codec calls on them: client encode, server decode,
// server encode into a reused buffer, client decode.
func (t *tracer) replayCodec(mix []mixItem, r *replayed) error {
	for _, m := range mix {
		c := t.find(m.key)
		if c == nil {
			return fmt.Errorf("replay: no %s call was captured", m.key)
		}
		var codec rpc.Codec
		switch c.protocol {
		case "xmlrpc":
			codec = xmlrpc.New()
		case "jsonrpc":
			codec = jsonrpc.New()
		default:
			return fmt.Errorf("replay: no codec for %q", c.protocol)
		}
		r.codec = c.protocol
		var reqWire, respWire bytes.Buffer
		if err := codec.EncodeRequest(&reqWire, c.req); err != nil {
			return err
		}
		if err := codec.EncodeResponse(&respWire, c.resp); err != nil {
			return err
		}
		var pooled bytes.Buffer
		steps := [len(codecSteps)]func(){
			func() {
				var buf bytes.Buffer
				codec.EncodeRequest(&buf, c.req)
			},
			func() { codec.DecodeRequest(bytes.NewReader(reqWire.Bytes())) },
			func() {
				pooled.Reset()
				codec.EncodeResponse(&pooled, c.resp)
			},
			func() { codec.DecodeResponse(bytes.NewReader(respWire.Bytes())) },
		}
		if _, err := codec.DecodeResponse(bytes.NewReader(respWire.Bytes())); err != nil {
			return fmt.Errorf("replay: %s reply does not decode: %v", m.key, err)
		}
		for i, f := range steps {
			ns, allocs := benchFunc(f)
			r.ns[i] += m.perOp * ns
			r.allocs[i] += m.perOp * allocs
		}
	}
	return nil
}

// traced is the --trace 1 run: an untraced pass for reference, then a
// traced pass on a fresh set-up, then the replays. The two passes share
// --seconds, so a traced run takes as long as an untraced one.
func (b *bench) traced(w workload) (*result, error) {
	d := time.Duration(b.opts.seconds) * time.Second / 2
	e, warm0, _, err := b.setupOnce(w, nil)
	if err != nil {
		return nil, err
	}
	plain := b.loop(e, nil, d, b.opts.maxOps)
	e.close()

	tr := newTracer()
	e, warm1, _, err := b.setupOnce(w, tr)
	if err != nil {
		return nil, err
	}
	tr.reset()
	tt := b.loop(e, tr, d, b.opts.maxOps)
	l := tr.sum(tt.attempted)
	var rep replayed
	mix := e.mix()
	err = tr.replayDispatch(mix, &rep)
	e.close()
	if err != nil {
		return nil, err
	}
	if err := tr.replayCodec(mix, &rep); err != nil {
		return nil, err
	}

	out := filepath.Join(b.opts.root, ".bench_build", "spans")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	// One file per workload, overwritten by the next traced run, so the
	// dumps do not pile up over many seeds.
	spans := filepath.Join(out, b.opts.workload+".csv")
	if err := tr.writeSpans(spans); err != nil {
		return nil, err
	}

	m := layerMetrics(plain, tt, l, &rep, b.opts.workload == "federation")
	fmt.Printf("%s traced: %d ops in %.2fs (untraced pass: %d ops in %.2fs), %d dispatches, %d calls; spans in %s\n",
		b.opts.workload, tt.attempted, tt.elapsed.Seconds(), plain.attempted, plain.elapsed.Seconds(),
		l.dispatches, l.calls, spans)
	printTieOut(m)
	failed := warm0.failed + plain.failed + warm1.failed + tt.failed
	return &result{
		Correct:   failed == 0 && tt.attempted > 0,
		Attempted: max(warm0.attempted+plain.attempted+warm1.attempted+tt.attempted, 1),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// layerMetrics derives every per-layer metric. Timings come from the
// traced pass; runtime counters and the allocation total from the
// untraced one. The metasched metrics are emitted only when federated:
// no other workload runs that layer, and BENCHMARK.json does not name
// them while federation is left out of it.
func layerMetrics(plain, tt *timed, l layers, rep *replayed, federated bool) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ops := float64(max(tt.attempted, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	callUs := l.perOpUs(l.callNs)
	dispatchUs := l.perOpUs(l.dispatchNs)
	put("client.call_us", callUs, "us")
	put("client.encode_us", rep.ns[0]/1e3, "us")
	put("client.decode_us", rep.ns[3]/1e3, "us")
	var codecUs, codecAllocs float64
	for _, codec := range []string{"xmlrpc", "jsonrpc"} {
		for i, step := range codecSteps {
			var ns, allocs float64
			if codec == rep.codec {
				ns, allocs = rep.ns[i], rep.allocs[i]
				codecUs += ns / 1e3
				codecAllocs += allocs
			}
			put("rpc."+codec+"."+step+"_us", ns/1e3, "us")
			put("rpc."+codec+"."+step+"_allocs", allocs, "count")
		}
	}
	put("core.dispatch_us", dispatchUs, "us")
	for i, name := range stageNames {
		put("core.stage."+name+"_us", l.perOpUs(l.stageNs[i]), "us")
	}
	put("core.handler_us", l.perOpUs(l.handlerNs), "us")
	put("core.dispatch_allocs", rep.dispatchAllocs, "count")
	put("core.offpipe_us", callUs-dispatchUs, "us")

	// Connection counts cover the client's life (set-up, warm-up and the
	// run); the reuse ratio covers the run.
	c0, c1 := tt.before.conn, tt.after.conn
	opened, reused := float64(c1.Opened-c0.Opened), float64(c1.Reused-c0.Reused)
	put("conn.opened", float64(c1.Opened), "count")
	put("conn.handshakes", float64(c1.Handshakes), "count")
	put("conn.reuse_ratio", ratio(reused, opened+reused), "ratio")
	put("conn.h2", float64(c1.HTTP2), "count")

	for _, name := range []string{"submit", "wait", "output", "delete"} {
		put("jobsvc."+name+"_ms", float64(l.byMethod["job."+name])/1e6/ops, "ms")
	}
	jt := tt.after.jobTimes
	var q, r, o float64
	for _, j := range jt {
		q += j.queue.Seconds() * 1e3
		r += j.run.Seconds() * 1e3
		o += j.overshoot.Seconds() * 1e3
	}
	n := float64(len(jt))
	put("jobsvc.queue_ms", ratio(q, n), "ms")
	put("jobsvc.run_ms", ratio(r, n), "ms")
	put("jobsvc.wait_overshoot_ms", ratio(o, n), "ms")

	put("db.wal_bytes_per_op", float64(tt.after.walBytes-tt.before.walBytes)/ops, "B")
	put("db.fsyncs_per_op", float64(tt.after.fsyncs-tt.before.fsyncs)/ops, "count")

	lags := append([]float64(nil), tt.after.pushLags[len(tt.before.pushLags):]...)
	sort.Float64s(lags)
	pct := func(q float64) float64 {
		if len(lags) == 0 {
			return 0
		}
		return lags[max(int(math.Ceil(q*float64(len(lags))))-1, 0)]
	}
	put("push.lag_p50_ms", pct(0.5), "ms")
	put("push.lag_p99_ms", pct(0.99), "ms")
	put("push.delivered_ratio", ratio(float64(tt.after.pushEvents-tt.before.pushEvents),
		float64(tt.after.pushExpected-tt.before.pushExpected)), "ratio")
	put("push.lagged", float64(tt.after.pushLagged-tt.before.pushLagged), "count")

	if federated {
		f0, f1 := tt.before.fed, tt.after.fed
		fwd := float64(f1.Forwarded - f0.Forwarded)
		put("metasched.forwarded_ratio", fwd/ops, "ratio")
		put("metasched.status_rpcs_per_forward", ratio(float64(f1.StatusRPCs-f0.StatusRPCs), fwd), "count")
		put("metasched.push_events_per_forward", ratio(float64(f1.PushEvents-f0.PushEvents), fwd), "count")
		put("metasched.pullback_bytes_per_forward", ratio(float64(f1.ArtifactBytes-f0.ArtifactBytes), fwd), "B")
		put("metasched.fallbacks", float64(f1.Fallbacks-f0.Fallbacks), "count")
	}

	pops := float64(max(plain.attempted, 1))
	put("runtime.gc_cycles_per_kop", float64(plain.gcCycles)/pops*1e3, "count")
	put("runtime.gc_pause_us_per_op", plain.gcPause.Seconds()*1e6/pops, "us")
	put("runtime.heap_bytes_per_op", float64(plain.heapBytes)/pops, "B")

	put("trace.throughput_ops_s", tt.rate, "1/s")
	put("trace.untraced_throughput_ops_s", plain.rate, "1/s")
	put("trace.throughput_ratio", ratio(tt.rate, plain.rate), "ratio")
	put("trace.call_coverage_ratio", ratio(codecUs+dispatchUs, callUs), "ratio")

	put("alloc.total_per_op", plain.allocsPerOp, "count")
	attributed := codecAllocs + rep.dispatchAllocs
	if !rep.dispatched {
		attributed = math.NaN() // nothing replayed through Dispatch: no tie-out
	}
	put("alloc.unattributed_per_op", plain.allocsPerOp-attributed, "count")
	return m
}

// printTieOut prints where the untraced run's allocations per op go.
func printTieOut(m map[string]metric) {
	fmt.Println("allocations per op, untraced run, by layer (replayed alone):")
	total := m["alloc.total_per_op"].Value
	var sum float64
	for _, codec := range []string{"xmlrpc", "jsonrpc"} {
		for _, step := range codecSteps {
			v := m["rpc."+codec+"."+step+"_allocs"].Value
			if v != 0 {
				fmt.Printf("  %-40s %10.1f\n", "rpc."+codec+"."+step, v)
				sum += v
			}
		}
	}
	fmt.Printf("  %-40s %10.1f\n", "core.dispatch", m["core.dispatch_allocs"].Value)
	sum += m["core.dispatch_allocs"].Value
	fmt.Printf("  %-40s %10.1f\n", "unattributed (HTTP, client, harness)", total-sum)
	fmt.Printf("  %-40s %10.1f\n", "total (allocs_per_op)", total)
}
