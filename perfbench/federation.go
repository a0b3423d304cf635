package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"clarens"
	"clarens/internal/monalisa"
)

// federation is two in-process servers federated through a MonALISA
// station, set up as the clarens-bench federation experiment does it.
// site0 has one worker and forwards every queued job it can; site1 has
// two workers. Callers submit short seq jobs to site0 in multicall
// bursts and wait for each verified output at site0.
type federation struct {
	pool    []seqJob
	user    string
	corrupt bool
}

const (
	fedBurst  = 8
	fedPeer   = "site1"
	fedPeriod = 50 * time.Millisecond // PeerPollInterval
	// fedJobSleep runs before each job's seq.
	fedJobSleep = "sleep 0.02"
)

func newFederation(seed int64, corrupt bool) *federation {
	rng := rand.New(rand.NewSource(seed))
	w := &federation{user: fmt.Sprintf("/O=perfbench/OU=People/CN=Analyst %08x", rng.Uint32()), corrupt: corrupt}
	for range 256 {
		j := newSeqJob(1+rng.Intn(100000), 100+rng.Intn(1900))
		// A pure seq job runs in well under a millisecond, so site0's
		// one worker drains every burst before the control loop looks;
		// the sleep keeps its queue long enough for forwarding to run.
		j.cmd = fedJobSleep + " && " + j.cmd
		w.pool = append(w.pool, j)
	}
	return w
}

func (w *federation) digest() string { return seqDigest("federation", w.user, w.pool) }

func (w *federation) warmup() int { return 3 * fedBurst }

type federationEnv struct {
	w        *federation
	backbone *monalisa.Station
	sites    [2]*clarens.Server
	client   *clarens.Client
	sub      *observer    // on site1, traced runs only
	pushed   atomic.Int64 // forwarded jobs verified, for the expected push count
	log      jobLog
}

// member starts one federation site publishing to the backbone.
func (w *federation) member(b *bench, name, backbone string, workers, pressure int) (*clarens.Server, error) {
	dir, err := os.MkdirTemp(b.scratch, "fed-"+name+"-")
	if err != nil {
		return nil, err
	}
	umap, err := userMap(dir, w.user)
	if err != nil {
		return nil, err
	}
	return clarens.NewServer(clarens.Config{
		Name:               name,
		FileRoot:           dir,
		ShellUserMap:       umap,
		EnableProxy:        true,
		EnableJobs:         true,
		JobWorkers:         workers,
		EnableFederation:   true,
		FederationPressure: pressure,
		PeerPollInterval:   fedPeriod,
		LocalStation:       "127.0.0.1:0",
		StationAddrs:       []string{backbone},
	})
}

func (w *federation) setup(b *bench, tr *tracer) (env, error) {
	backbone, err := monalisa.NewStation("perfbench-backbone", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &federationEnv{w: w, backbone: backbone}
	// site0 forwards whenever site1 is idle; site1 never forwards back.
	for i, cfg := range []struct{ workers, pressure int }{{1, -1}, {2, 1 << 20}} {
		srv, err := w.member(b, fmt.Sprintf("site%d", i), backbone.Addr().String(), cfg.workers, cfg.pressure)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sites[i] = srv
		if i == 0 {
			if err := tr.instrument(srv.Core()); err != nil {
				e.close()
				return nil, err
			}
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			e.close()
			return nil, err
		}
		udp, err := net.ResolveUDPAddr("udp", srv.StationAddr())
		if err != nil {
			e.close()
			return nil, err
		}
		backbone.Peer(udp)
		if err := srv.PublishServices(); err != nil {
			e.close()
			return nil, err
		}
	}
	for _, srv := range e.sites {
		srv.TrustFederationIssuers(e.sites[0].RPCURL(), e.sites[1].RPCURL())
	}
	for deadline := time.Now().Add(20 * time.Second); e.sites[0].Federation.Stats().Peers < 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			e.close()
			return nil, errors.New("federation: site0 never discovered site1")
		}
	}
	sess, err := e.sites[0].NewSessionFor(clarens.MustParseDN(w.user))
	if err != nil {
		e.close()
		return nil, err
	}
	if e.client, err = clarens.Dial(e.sites[0].URL(), clarens.WithMaxConns(callers), clarens.WithSession(sess.ID)); err != nil {
		e.close()
		return nil, err
	}
	if tr != nil {
		// Observe the push plane the forwarding watch rides: site1's
		// job.state events for this user.
		s1, err := e.sites[1].NewSessionFor(clarens.MustParseDN(w.user))
		if err != nil {
			e.close()
			return nil, err
		}
		if e.sub, err = observe(e.sites[1].URL(), s1.ID, w.user); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// step runs one burst: fedBurst jobs submitted in one multicall, each
// then waited for and its output checked at site0 (one op each), and
// all deleted in one multicall.
func (e *federationEnv) step(c *caller) {
	var burst [fedBurst]seqJob
	for i := range burst {
		burst[i] = e.w.pool[c.input(len(e.w.pool))]
	}
	op := c.tr.beginOp()
	start := time.Now()
	b := e.client.Batch()
	for _, j := range burst {
		b.Add("job.submit", j.cmd, 0, 0)
	}
	h, ctx := c.tr.startCall(op)
	res, err := b.RunCtx(ctx)
	c.tr.endCall(h)
	if err != nil {
		for range burst {
			c.doneLat(time.Since(start), err)
		}
		c.tr.endOp(op)
		return
	}
	var ids [fedBurst]string
	var lats [fedBurst]time.Duration
	var errs [fedBurst]error
	for i, r := range res {
		if errs[i] = r.Err; r.Err != nil {
			continue
		}
		ids[i], _ = r.Result.(string)
		errs[i] = e.verify(c.tr, op, ids[i], burst[i])
		lats[i] = time.Since(start)
	}
	del := e.client.Batch()
	for _, id := range ids {
		if id != "" {
			del.Add("job.delete", id)
		}
	}
	h, ctx = c.tr.startCall(op)
	dres, derr := del.RunCtx(ctx)
	c.tr.endCall(h)
	for _, r := range dres {
		if r.Err != nil && derr == nil {
			derr = r.Err
		}
	}
	c.tr.endOp(op)
	for i := range burst {
		err := errs[i]
		if err == nil {
			err = derr
		}
		c.doneLat(lats[i], err)
	}
}

// verify waits for one job at site0, checks which site ran it and its
// output.
func (e *federationEnv) verify(tr *tracer, op opRef, id string, j seqJob) error {
	st, err := callStruct(e.client, tr, op, "job.wait", id, 30)
	if err != nil {
		return err
	}
	if st["state"] != "done" {
		return fmt.Errorf("job %s: state %v (%v), want done", id, st["state"], st["error"])
	}
	// A forwarded job names the peer that ran it and its id there; a
	// job site0 kept names no peer.
	switch peer, _ := st["peer"].(string); {
	case peer == fedPeer && st["remote_id"] != nil:
		e.pushed.Add(1)
	case peer == "" && st["remote_id"] == nil:
	default:
		return fmt.Errorf("job %s: ran on peer %q (remote id %v), want %q or site0", id, peer, st["remote_id"], fedPeer)
	}
	if tr != nil {
		e.log.record(e.sites[0], id, time.Now())
	}
	return checkOutput(e.client, tr, op, id, j, e.w.corrupt)
}

func (e *federationEnv) snapshot() snap {
	s := snap{conn: e.client.ConnStats(), fed: e.sites[0].Federation.Stats()}
	e.sub.read(&s)
	s.pushExpected = e.pushed.Load() * jobStatesPerJob
	s.jobTimes = e.log.read()
	return s
}

func (e *federationEnv) mix() []mixItem {
	return []mixItem{
		{key: "system.multicall/job.submit", perOp: 1.0 / fedBurst},
		{key: "job.wait", perOp: 1},
		{key: "job.output", perOp: 1},
		{key: "system.multicall/job.delete", perOp: 1.0 / fedBurst},
	}
}

func (e *federationEnv) close() {
	if e.sub != nil {
		e.sub.close()
	}
	if e.client != nil {
		e.client.Close()
	}
	for _, srv := range e.sites {
		if srv != nil {
			srv.Close()
		}
	}
	e.backbone.Close()
}
