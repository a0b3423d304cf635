package main

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clarens"
	"clarens/internal/pubsub"
)

// jobs is the write path: an authenticated session runs job.submit with
// a seeded `seq A B` job (10-40 KB of stdout), then job.wait, job.output
// and job.delete, against a server persisting to a DataDir with the
// default fsync policy. One /ws subscriber on job.state measures push lag.
type jobs struct {
	pool    []seqJob
	user    string
	corrupt bool
}

// seqJob is one generated `seq` command and the md5 of its output.
type seqJob struct {
	cmd  string
	md5  string
	size int
}

// newSeqJob makes `seq first last` with last chosen so the output is at
// least size bytes.
func newSeqJob(first, size int) seqJob {
	var out []byte
	last := first
	for ; len(out) < size; last++ {
		out = strconv.AppendInt(out, int64(last), 10)
		out = append(out, '\n')
	}
	sum := md5.Sum(out)
	return seqJob{cmd: fmt.Sprintf("seq %d %d", first, last-1), md5: hex.EncodeToString(sum[:]), size: len(out)}
}

func seqDigest(name, user string, pool []seqJob) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", name, user)
	for _, j := range pool {
		fmt.Fprintf(h, "%s\x00", j.cmd)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func newJobs(seed int64, corrupt bool) *jobs {
	rng := rand.New(rand.NewSource(seed))
	w := &jobs{user: fmt.Sprintf("/O=perfbench/OU=People/CN=Analyst %08x", rng.Uint32()), corrupt: corrupt}
	for range 256 {
		w.pool = append(w.pool, newSeqJob(1+rng.Intn(100000), 10<<10+rng.Intn(30<<10)))
	}
	return w
}

func (w *jobs) digest() string { return seqDigest("jobs", w.user, w.pool) }

func (w *jobs) warmup() int { return 10 }

// userMap writes a shell user map granting dn the local account "analyst".
func userMap(dir, dn string) (string, error) {
	path := filepath.Join(dir, ".clarens_user_map")
	return path, os.WriteFile(path, []byte("analyst : "+dn+" ;;\n"), 0o644)
}

type jobsEnv struct {
	w      *jobs
	srv    *clarens.Server
	client *clarens.Client
	tr     *tracer
	sub    *observer
	wal    walMeter
	done   atomic.Int64 // jobs verified, for the expected push count
	log    jobLog
}

func (w *jobs) setup(b *bench, tr *tracer) (env, error) {
	dir, err := os.MkdirTemp(b.scratch, "jobs-")
	if err != nil {
		return nil, err
	}
	umap, err := userMap(dir, w.user)
	if err != nil {
		return nil, err
	}
	srv, err := clarens.NewServer(clarens.Config{
		Name:         "jobs",
		DataDir:      filepath.Join(dir, "db"),
		ShellUserMap: umap,
		EnableJobs:   true,
	})
	if err != nil {
		return nil, err
	}
	e := &jobsEnv{w: w, srv: srv, tr: tr}
	e.wal.path = filepath.Join(srv.Core().Store().Dir(), "wal.log")
	if err := tr.instrument(srv.Core()); err != nil {
		e.close()
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	sess, err := srv.NewSessionFor(clarens.MustParseDN(w.user))
	if err != nil {
		e.close()
		return nil, err
	}
	if e.client, err = clarens.Dial(srv.URL(), clarens.WithMaxConns(callers), clarens.WithSession(sess.ID)); err != nil {
		e.close()
		return nil, err
	}
	if e.sub, err = observe(srv.URL(), sess.ID, w.user); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *jobsEnv) step(c *caller) {
	j := e.w.pool[c.input(len(e.w.pool))]
	op := c.tr.beginOp()
	start := time.Now()
	err := e.lifecycle(c, op, j)
	c.tr.endOp(op)
	c.done(start, err)
	if c.tr != nil {
		e.wal.observe()
	}
}

// lifecycle submits one job, waits for it, checks its output and
// deletes it.
func (e *jobsEnv) lifecycle(c *caller, op opRef, j seqJob) error {
	h, ctx := c.tr.startCall(op)
	v, err := e.client.CallCtx(ctx, "job.submit", j.cmd)
	c.tr.endCall(h)
	if err != nil {
		return err
	}
	id, _ := v.(string)
	if err := waitDone(e.client, c.tr, op, id); err != nil {
		return err
	}
	if c.tr != nil {
		e.log.record(e.srv, id, time.Now())
	}
	if err := checkOutput(e.client, c.tr, op, id, j, e.w.corrupt); err != nil {
		return err
	}
	e.done.Add(1)
	return deleteJob(e.client, c.tr, op, id)
}

// waitDone calls job.wait and checks the job finished cleanly.
func waitDone(client *clarens.Client, tr *tracer, op opRef, id string) error {
	st, err := callStruct(client, tr, op, "job.wait", id, 30)
	if err != nil {
		return err
	}
	if st["state"] != "done" {
		return fmt.Errorf("job %s: state %v (%v), want done", id, st["state"], st["error"])
	}
	return nil
}

// checkOutput fetches job.output and compares its stdout with the md5
// of the generated sequence.
func checkOutput(client *clarens.Client, tr *tracer, op opRef, id string, j seqJob, corrupt bool) error {
	out, err := callStruct(client, tr, op, "job.output", id)
	if err != nil {
		return err
	}
	stdout, _ := out["stdout"].(string)
	sum := md5.Sum([]byte(stdout))
	want := j.md5
	if corrupt {
		want = "x" + want[1:]
	}
	if got := hex.EncodeToString(sum[:]); got != want || out["truncated"] == true {
		return fmt.Errorf("job %s (%s): stdout md5 %s (%d bytes, truncated %v), want %s (%d bytes)",
			id, j.cmd, got, len(stdout), out["truncated"], want, j.size)
	}
	return nil
}

func deleteJob(client *clarens.Client, tr *tracer, op opRef, id string) error {
	h, ctx := tr.startCall(op)
	_, err := client.CallCtx(ctx, "job.delete", id)
	tr.endCall(h)
	return err
}

// callStruct is one traced call whose reply must be a struct.
func callStruct(client *clarens.Client, tr *tracer, op opRef, method string, params ...any) (map[string]any, error) {
	h, ctx := tr.startCall(op)
	v, err := client.CallCtx(ctx, method, params...)
	tr.endCall(h)
	if err != nil {
		return nil, err
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s: got %T, want a struct", method, v)
	}
	return m, nil
}

// jobLog keeps finished jobs' timelines for the traced run.
type jobLog struct {
	mu    sync.Mutex
	times []jobTime
}

// record notes a finished job's timeline from jobsvc.Service.Get;
// replied is when the client received job.wait's reply.
func (l *jobLog) record(srv *clarens.Server, id string, replied time.Time) {
	j, ok := srv.Jobs.Get(id)
	if !ok {
		return
	}
	// A job the federation forwarded has no local start time.
	if j.Started.IsZero() || j.Finished.IsZero() {
		return
	}
	t := jobTime{queue: j.Started.Sub(j.Submitted), run: j.Finished.Sub(j.Started), overshoot: replied.Sub(j.Finished)}
	l.mu.Lock()
	l.times = append(l.times, t)
	l.mu.Unlock()
}

func (l *jobLog) read() []jobTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]jobTime(nil), l.times...)
}

func (e *jobsEnv) snapshot() snap {
	s := snap{conn: e.client.ConnStats(), fsyncs: e.srv.Core().Store().Fsyncs(), walBytes: e.wal.total()}
	e.sub.read(&s)
	s.pushExpected = e.done.Load() * jobStatesPerJob
	s.jobTimes = e.log.read()
	return s
}

func (e *jobsEnv) mix() []mixItem {
	return []mixItem{{key: "job.submit", perOp: 1}, {key: "job.wait", perOp: 1},
		{key: "job.output", perOp: 1}, {key: "job.delete", perOp: 1}}
}

func (e *jobsEnv) close() {
	if e.sub != nil {
		e.sub.close()
	}
	if e.client != nil {
		e.client.Close()
	}
	e.srv.Close()
}

// walMeter adds up the bytes appended to a WAL file from its size,
// sampled after every op; a shrink means a compaction restarted it.
type walMeter struct {
	path  string
	mu    sync.Mutex
	last  int64
	bytes int64
}

func (m *walMeter) observe() {
	st, err := os.Stat(m.path)
	if err != nil {
		return
	}
	m.mu.Lock()
	if n := st.Size(); n >= m.last {
		m.bytes += n - m.last
		m.last = n
	} else {
		m.bytes += n
		m.last = n
	}
	m.mu.Unlock()
}

func (m *walMeter) total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// jobStatesPerJob is how many job.state events one job publishes before
// it is deleted: queued, running, done.
const jobStatesPerJob = 3

// observer is a /ws subscriber on job.state events that notes each
// event's delivery lag.
type observer struct {
	client *clarens.Client
	sub    *clarens.Subscription
	wg     sync.WaitGroup

	mu     sync.Mutex
	events int64
	lagged int64
	lags   []float64
}

func observe(url, session, owner string) (*observer, error) {
	client, err := clarens.Dial(url, clarens.WithSession(session), clarens.WithMaxConns(1))
	if err != nil {
		return nil, err
	}
	o := &observer{client: client}
	if o.sub, err = client.Subscribe(fmt.Sprintf("type=job.state owner='%s'", owner)); err != nil {
		client.Close()
		return nil, err
	}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for ev := range o.sub.Events() {
			lag := time.Since(ev.Time)
			o.mu.Lock()
			if ev.Type == pubsub.TypeLagged {
				o.lagged++
			} else {
				o.events++
				o.lags = append(o.lags, lag.Seconds()*1e3)
			}
			o.mu.Unlock()
		}
	}()
	return o, nil
}

func (o *observer) read(s *snap) {
	if o == nil {
		return
	}
	o.mu.Lock()
	s.pushEvents, s.pushLagged = o.events, o.lagged
	s.pushLags = append([]float64(nil), o.lags...)
	o.mu.Unlock()
}

func (o *observer) close() {
	o.sub.Close()
	o.wg.Wait()
	o.client.Close()
}
