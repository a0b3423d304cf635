package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clarens"
	"clarens/internal/metasched"
)

// callers is the closed loop's concurrency: two callers, each sending
// its next op only after the previous one completed, one per core of
// the 2-core machines the benchmark was sized on.
const callers = 2

// workload is one seeded traffic mix. Its inputs are generated when it
// is constructed; the program under test receives only those inputs.
type workload interface {
	// digest identifies the generated inputs.
	digest() string
	// warmup is how many ops each set-up runs before timing starts.
	warmup() int
	// setup boots the servers and clients. A non-nil tracer instruments
	// them for the traced run.
	setup(b *bench, tr *tracer) (env, error)
}

// env is a set-up workload, ready to run ops.
type env interface {
	// step runs the next op (a burst of ops on federation) for c and
	// reports each through c.done.
	step(c *caller)
	// snapshot reads the program's own counters.
	snapshot() snap
	// mix says which captured calls make up one op, for the codec and
	// dispatch replays of the traced run.
	mix() []mixItem
	close()
}

// snap is a reading of the counters the program keeps itself.
type snap struct {
	conn       clarens.ConnStats
	fed        metasched.Stats
	fsyncs     uint64
	walBytes   int64
	pushEvents int64
	pushLagged int64
	// pushExpected is how many events the subscriber should have seen.
	pushExpected int64
	pushLags     []float64 // ms, every delivery so far
	jobTimes     []jobTime // traced runs only
}

// jobTime is one job's timeline as jobsvc.Service.Get reports it.
type jobTime struct {
	queue, run, overshoot time.Duration
}

// bench carries what every workload shares.
type bench struct {
	opts    options
	scratch string // removed when the run ends

	mismatchOnce sync.Once
}

// mismatch prints the first wrong reply or failed call of the run.
func (b *bench) mismatch(err error) {
	b.mismatchOnce.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: first mismatch: %v\n", err) })
}

// caller is one closed-loop client goroutine.
type caller struct {
	id   int
	b    *bench
	tr   *tracer
	next int // index of this caller's next input

	lat       latencies // of the ops that passed their check
	attempted int
	failed    int
	ops       *atomic.Int64 // finished ops across callers
}

// input returns the index of the caller's next input in a pool of n,
// interleaving the callers so together they walk the pool in order.
func (c *caller) input(n int) int {
	i := (c.next*callers + c.id) % n
	c.next++
	return i
}

// done records one finished op that started at start.
func (c *caller) done(start time.Time, err error) {
	c.doneLat(time.Since(start), err)
}

// doneLat records one finished op with its latency.
func (c *caller) doneLat(lat time.Duration, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.b.mismatch(err)
	} else {
		c.lat.add(lat)
	}
	c.ops.Add(1)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// timed is the outcome of one timed run.
type timed struct {
	elapsed           time.Duration
	attempted, failed int
	samples           int           // ops that passed their check
	maxLat            time.Duration // slowest of them
	p50, p99          float64       // ms, medians over latency chunks
	rate              float64       // ops/s over the whole run
	cpuPerOp          float64       // µs, whole-run CPU time per op
	allocsPerOp       float64       // whole-run mallocs per op
	gcCycles          uint32
	gcPause           time.Duration
	heapBytes         uint64
	before, after     snap
}

// loop drives the closed loop for d (or until maxOps ops finished, or
// the tracer's span buffer filled) and measures the process meanwhile.
func (b *bench) loop(e env, tr *tracer, d time.Duration, maxOps int64) *timed {
	var ops atomic.Int64
	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = &caller{id: i, b: b, tr: tr, ops: &ops}
	}
	t := &timed{before: e.snapshot()}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && (maxOps == 0 || ops.Load() < maxOps) && !tr.full() {
				e.step(c)
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	t.after = e.snapshot()

	for _, c := range cs {
		t.attempted += c.attempted
		t.failed += c.failed
		t.samples += c.lat.n
		t.maxLat = max(t.maxLat, c.lat.max)
	}
	t.gcCycles = ms1.NumGC - ms0.NumGC
	t.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	t.heapBytes = ms1.TotalAlloc - ms0.TotalAlloc

	n := float64(ops.Load())
	t.rate = n / t.elapsed.Seconds()
	t.cpuPerOp = float64(cpu) / 1e3 / n
	t.allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / n
	t.p50, t.p99 = chunkedLatency(cs)
	return t
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupOnce boots the workload, runs its warm-up and returns the env
// ready for the first timed op, with the time that took. Warm-up ops
// are checked like timed ones; the caller counts their failures.
func (b *bench) setupOnce(w workload, tr *tracer) (env, *timed, time.Duration, error) {
	start := time.Now()
	e, err := w.setup(b, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := b.loopOps(e, w.warmup())
	return e, warm, time.Since(start), nil
}

// loopOps runs exactly n ops per caller, untimed.
func (b *bench) loopOps(e env, n int) *timed {
	return b.loop(e, nil, time.Hour, int64(n*callers))
}

// endToEnd is the --trace 0 run: several set-ups, then one untraced
// timed run on the last of them.
func (b *bench) endToEnd(w workload, processStart time.Time) (*result, error) {
	var setups []float64
	var e env
	var attempted, failed int
	for i := 0; i < b.opts.setups || e == nil; i++ {
		if e != nil {
			e.close()
		}
		var warm *timed
		var d time.Duration
		var err error
		if e, warm, d, err = b.setupOnce(w, nil); err != nil {
			return nil, err
		}
		attempted += warm.attempted
		failed += warm.failed
		if i == 0 {
			// The first set-up also pays process start and input
			// generation, as a user starting the benchmark would.
			d = time.Since(processStart)
		}
		setups = append(setups, d.Seconds())
	}
	t := b.loop(e, nil, time.Duration(b.opts.seconds)*time.Second, b.opts.maxOps)
	e.close()
	attempted += t.attempted
	failed += t.failed

	ok := float64(t.attempted-t.failed) / math.Max(1, float64(t.attempted))
	fmt.Printf("%s: %d ops in %.2fs, %d failed; latency over %d samples: p50 %.3f ms, p99 %.3f ms (chunk medians), max %.3f ms\n",
		b.opts.workload, t.attempted, t.elapsed.Seconds(), t.failed, t.samples, t.p50, t.p99, t.maxLat.Seconds()*1e3)
	fmt.Printf("setup_s per set-up: %v\n", setups)
	return &result{
		Correct:   failed == 0 && t.attempted > 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_ops_s": {t.rate, "1/s"},
			"latency_p50_ms":   {t.p50, "ms"},
			"latency_p99_ms":   {t.p99, "ms"},
			"success_ratio":    {ok, "ratio"},
			"cpu_us_per_op":    {t.cpuPerOp, "us"},
			"allocs_per_op":    {t.allocsPerOp, "count"},
			"rss_peak_mb":      {peakRSS() / (1 << 20), "MB"},
			"setup_s":          {median(setups), "s"},
		},
	}, nil
}
