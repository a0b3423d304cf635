// Package metasched implements a federated meta-scheduler over the
// Clarens job service: every server is simultaneously client and server
// (cs/0306002), and a local scheduler under queue pressure forwards work
// to underloaded peers discovered at runtime — the resource-management
// pattern of the GAE papers (cs/0504033).
//
// The scheduler runs one control loop per server. Each cycle it
//
//  1. refreshes the peer table from the discovery cache (peers advertise
//     their job service through the station network; records expire on
//     their TTL and vanish when not republished),
//  2. polls every peer's job.stats for queue depth, running count, and
//     worker-pool size, scoring peers by free capacity,
//  3. watches jobs previously forwarded: terminal results are pulled back
//     into the local shadow record, and jobs whose peer stopped answering
//     for DeadPolls consecutive cycles fall back into the local queue,
//  4. when the local queue exceeds the pressure threshold, claims the
//     jobs farthest from a local worker and forwards them to the
//     least-loaded peers, batched per owner over system.multicall.
//
// Identity travels with the work: before forwarding an owner's jobs the
// scheduler mints a one-time delegation secret from the local proxy
// service and redeems it on the peer via proxy.login_delegated, so the
// remote job.submit executes under a session for the submitting DN — the
// peer sees the real owner, applies its own quotas and user mapping, and
// the owner's job.status/job.output on the submitting server proxy to the
// executing peer transparently.
//
// Fallback is at-least-once, not exactly-once: a peer that was merely
// partitioned (rather than dead) may still be running a job the
// scheduler reclaimed after DeadPolls failed polls, so a payload can
// execute twice in that window — payloads should be idempotent or guard
// externally. The scheduler narrows the window by remembering the
// orphaned (peer, remote id, session) binding and best-effort cancelling
// the remote copy once the peer answers again.
package metasched

import (
	"errors"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"time"

	"clarens/internal/discovery"
	"clarens/internal/jobsvc"
	"clarens/internal/pki"
	"clarens/internal/proxysvc"
	"clarens/internal/pubsub"
	"clarens/internal/resilience"
	"clarens/internal/rpc"
	"clarens/internal/telemetry"
)

// Call is one sub-call in a batched peer request. Trace optionally
// carries the originating request's trace identifier, so a batched
// forward keeps each job on its own trace on the peer; Sample marks the
// trace force-sampled, keeping it in the peer's flight recorder too.
type Call struct {
	Method string
	Params []any
	Trace  string
	Sample bool
}

// Result is one sub-call outcome from a batched peer request.
type Result struct {
	Value any
	Err   error
}

// Conn is a client connection to one peer server. Implementations carry
// the session token per call so one connection serves many identities
// (the public clarens.Client is adapted to this at assembly time).
type Conn interface {
	// Call invokes one method under the given session token ("" =
	// anonymous), stamping the outbound request with trace when non-empty
	// so the peer's logs correlate with the originating request.
	Call(token, trace, method string, params ...any) (any, error)
	// Batch executes sub-calls in a single system.multicall round trip
	// under token; per-call faults come back in each Result.
	Batch(token string, calls []Call) ([]Result, error)
	Close()
}

// Dialer opens a Conn to a peer RPC endpoint URL.
type Dialer func(url string) (Conn, error)

// EventStream is a live push subscription to a peer's event bus; the
// channel closes when the subscription is torn down.
type EventStream interface {
	Events() <-chan pubsub.Event
	Close() error
}

// EventDialer opens a push subscription to the /ws endpoint of the
// server at rpcURL, authenticated by the delegated session token and
// filtered by query. An error means the peer has no push plane (no /ws
// endpoint, or the dial failed); the scheduler then keeps batch-polling
// that peer as before.
type EventDialer func(rpcURL, token, query string) (EventStream, error)

// PeerSource lists live peer job services (implemented by
// discovery.Service).
type PeerSource interface {
	PeersFor(service, excludeServer string) []discovery.Entry
}

// Delegator mints one-time delegation secrets (implemented by
// proxysvc.Service).
type Delegator interface {
	IssueDelegation(dn pki.DN, ttl time.Duration) (string, error)
}

// Config tunes the meta-scheduler.
type Config struct {
	// ServerName is the local server's discovery name; its own entries
	// are excluded from the peer table.
	ServerName string
	// SelfURL returns the URL peers should call back to verify
	// delegations (the local RPC endpoint; a func because the listen
	// address is only known after Start).
	SelfURL func() string
	// Pressure is the local queued-job depth above which forwarding
	// starts (default 8; negative = forward whenever a peer is idle).
	Pressure int
	// PollInterval is the control-loop period: peer load polls, remote
	// watches, and forwarding decisions all run on it (default 2s).
	PollInterval time.Duration
	// MaxForward caps jobs forwarded to one peer in one cycle
	// (default 16).
	MaxForward int
	// DelegationTTL bounds the validity of the one-time delegation
	// secrets minted for forwarding (default 2m).
	DelegationTTL time.Duration
	// DeadPolls is how many consecutive failed remote-watch polls a
	// forwarded job tolerates before falling back to the local queue
	// (default 3).
	DeadPolls int
	// Breaker tunes the per-peer circuit breakers that replace the old
	// ad-hoc penalty counter: transport failures trip a peer's breaker,
	// a failed forward or delegation handoff force-opens it, and while
	// open the peer is skipped by forwarding and polled only by the
	// half-open recovery probe. A zero OpenFor defaults to
	// 5x PollInterval — the old PenaltyCycles sit-out expressed in time.
	Breaker resilience.BreakerConfig
	// Telemetry, when set, exports the per-peer breaker states
	// (clarens.federation.breaker.<peer>: 0 closed, 0.5 half-open,
	// 1 open) and the open-breaker count on /metrics.
	Telemetry *telemetry.Registry
	// Spans, when set, records forward edges into the flight recorder
	// (which peer each trace was forwarded to — the fan-out map federated
	// trace assembly follows) and propagates the force-sample bit of
	// sampled traces onto the batched peer calls.
	Spans *telemetry.SpanStore
	// EventDial, when set, lets the watch loop subscribe to peer job
	// events over /ws instead of batch-polling job.status every cycle:
	// push-covered jobs are only polled once when the subscription is
	// established, once when a terminal event arrives (to pull the
	// result back), and on the safety-net interval. Nil keeps the pure
	// polling behavior.
	EventDial EventDialer
	// WatchSafetyInterval is how often a push-covered remote job is
	// still status-polled as a safety net against missed events
	// (default 15x PollInterval, min 2s).
	WatchSafetyInterval time.Duration
}

func (c *Config) fill() {
	if c.Pressure == 0 {
		c.Pressure = 8
	} else if c.Pressure < 0 {
		c.Pressure = 0
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.MaxForward <= 0 {
		c.MaxForward = 16
	}
	if c.DelegationTTL <= 0 {
		c.DelegationTTL = proxysvc.DefaultDelegationTTL
	}
	if c.DeadPolls <= 0 {
		c.DeadPolls = 3
	}
	if c.Breaker.OpenFor <= 0 {
		c.Breaker.OpenFor = 5 * c.PollInterval
	}
	if c.WatchSafetyInterval <= 0 {
		c.WatchSafetyInterval = 15 * c.PollInterval
		if c.WatchSafetyInterval < 2*time.Second {
			c.WatchSafetyInterval = 2 * time.Second
		}
	}
}

// peer is one row of the scored peer table. Health beyond the last
// poll's alive bit lives in the scheduler's per-peer breaker (keyed by
// URL), not here.
type peer struct {
	name    string
	url     string
	queued  int
	running int
	workers int
	alive   bool // last job.stats poll succeeded
	expires time.Time
}

// free is the peer's uncommitted worker capacity — the number of jobs it
// could start immediately.
func (p *peer) free() int {
	n := p.workers - p.running - p.queued
	if n < 0 {
		return 0
	}
	return n
}

// Stats is a snapshot of the scheduler's counters.
type Stats struct {
	Peers         int    // live peers in the table
	Forwarded     uint64 // jobs accepted by peers
	PulledBack    uint64 // remote results finalized locally
	Fallbacks     uint64 // jobs returned to the local queue after a failure
	ArtifactBytes uint64 // artifact bytes fetched from peers and re-staged
	StatusRPCs    uint64 // job.status calls issued by the watch loop
	PushEvents    uint64 // peer job events received over push subscriptions
	PushWatches   int    // live peer push subscriptions
	BreakerOpen   int    // peers whose circuit breaker is currently open
}

// Scheduler is the per-server federated meta-scheduler.
type Scheduler struct {
	jobs     *jobsvc.Service
	peers    PeerSource
	deleg    Delegator
	dial     Dialer
	logger   *log.Logger
	cfg      Config
	breakers *resilience.Group // per-peer circuit breakers, keyed by endpoint URL
	cycleMu  sync.Mutex        // serializes cycles (ticker loop vs. Kick)

	mu        sync.Mutex
	table     map[string]*peer    // peer name -> scored row
	conns     map[string]Conn     // endpoint URL -> connection
	sessions  map[string]string   // peer name + "|" + owner DN -> delegated session
	failPolls map[string]int      // local job id -> consecutive failed watch polls
	orphans   map[string][]orphan // endpoint URL -> reclaimed remote copies to cancel
	watches   map[watchKey]*peerWatch
	noWS      map[string]time.Time // endpoint URL -> next push-dial retry
	lastPoll  map[string]time.Time // local job id -> last watch status poll
	gauged    map[string]bool      // peer names with a registered breaker gauge
	stats     Stats

	wakeCh  chan struct{} // push events nudge the loop to run a cycle now
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// watchKey identifies one push subscription: the peer endpoint plus the
// delegated session it authenticates as (one watch per owner per peer —
// the peer's owner scoping admits exactly that owner's job events).
type watchKey struct{ url, token string }

// peerWatch is one live push subscription to a peer's event bus.
type peerWatch struct {
	stream EventStream

	mu      sync.Mutex
	ready   map[string]bool // remote job ids with an unconsumed terminal event
	pollAll bool            // stream ended: next cycle polls everything once
	lost    bool            // stream ended permanently; prune and re-dial
}

// New builds a scheduler and installs it as the job service's remote
// controller, so job.status/job.output/job.cancel proxy to executing
// peers. Call Start to begin the control loop.
func New(jobs *jobsvc.Service, peers PeerSource, deleg Delegator, dial Dialer, logger *log.Logger, cfg Config) (*Scheduler, error) {
	if jobs == nil || peers == nil || deleg == nil || dial == nil {
		return nil, fmt.Errorf("metasched: jobs, peers, delegator, and dialer are all required")
	}
	cfg.fill()
	if cfg.SelfURL == nil {
		return nil, fmt.Errorf("metasched: SelfURL is required (peers verify delegations against it)")
	}
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	s := &Scheduler{
		jobs:      jobs,
		peers:     peers,
		deleg:     deleg,
		dial:      dial,
		logger:    logger,
		cfg:       cfg,
		breakers:  resilience.NewGroup(cfg.Breaker),
		table:     make(map[string]*peer),
		conns:     make(map[string]Conn),
		sessions:  make(map[string]string),
		failPolls: make(map[string]int),
		orphans:   make(map[string][]orphan),
		watches:   make(map[watchKey]*peerWatch),
		noWS:      make(map[string]time.Time),
		lastPoll:  make(map[string]time.Time),
		gauged:    make(map[string]bool),
		wakeCh:    make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.RegisterGauge("clarens.federation.breaker_open",
			"Peers whose circuit breaker is currently open.",
			func() float64 { return float64(s.breakers.OpenCount()) })
	}
	jobs.SetRemoteController(s)
	return s, nil
}

// registerBreakerGauge exports one peer's breaker state on /metrics the
// first time the peer is seen: 0 closed, 0.5 half-open, 1 open. Called
// with s.mu held.
func (s *Scheduler) registerBreakerGauge(name string) {
	if s.cfg.Telemetry == nil || s.gauged[name] {
		return
	}
	s.gauged[name] = true
	s.cfg.Telemetry.RegisterGauge("clarens.federation.breaker."+name,
		"Circuit breaker state for peer "+name+" (0 closed, 0.5 half-open, 1 open).",
		func() float64 {
			s.mu.Lock()
			p, ok := s.table[name]
			var url string
			if ok {
				url = p.url
			}
			s.mu.Unlock()
			if !ok {
				return 0
			}
			switch s.breakers.State(url) {
			case resilience.Open:
				return 1
			case resilience.HalfOpen:
				return 0.5
			}
			return 0
		})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Start launches the control loop.
func (s *Scheduler) Start() {
	s.wg.Add(1)
	go s.loop()
}

// Stop halts the control loop and closes peer connections. Forwarded
// jobs keep their shadow records; a later Start (or restart) re-adopts
// them.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.stopCh)
	watches := s.watches
	s.watches = make(map[watchKey]*peerWatch)
	s.mu.Unlock()
	// Close push streams first so their runWatch goroutines unblock and
	// the wg.Wait below can finish.
	for _, w := range watches {
		w.stream.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = make(map[string]Conn)
	s.mu.Unlock()
}

// Stats returns the live counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Peers = 0
	for _, p := range s.table {
		if p.alive {
			st.Peers++
		}
	}
	st.PushWatches = len(s.watches)
	st.BreakerOpen = s.breakers.OpenCount()
	return st
}

func (s *Scheduler) loop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.Kick()
		case <-s.wakeCh:
			// A push event (usually a terminal state) arrived: react now
			// instead of waiting out the poll interval.
			s.Kick()
		}
	}
}

// wake nudges the control loop to run a cycle as soon as possible.
func (s *Scheduler) wake() {
	select {
	case s.wakeCh <- struct{}{}:
	default:
	}
}

// Kick runs one full control cycle synchronously: refresh peers, poll
// load, watch forwarded jobs, forward under pressure. Exposed so tests
// (and operators via examples) can drive the scheduler deterministically.
func (s *Scheduler) Kick() {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()
	s.refreshPeers()
	s.pollPeers()
	s.reapOrphans()
	s.watchRemote()
	s.forward()
}

// conn returns (dialing if needed) the connection for an endpoint URL.
func (s *Scheduler) conn(url string) (Conn, error) {
	s.mu.Lock()
	c, ok := s.conns[url]
	s.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := s.dial(url)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if existing, ok := s.conns[url]; ok {
		s.mu.Unlock()
		c.Close()
		return existing, nil
	}
	s.conns[url] = c
	s.mu.Unlock()
	return c, nil
}

// dropConn discards a connection after transport-level failures so the
// next use re-dials.
func (s *Scheduler) dropConn(url string) {
	s.mu.Lock()
	c, ok := s.conns[url]
	if ok {
		delete(s.conns, url)
	}
	s.mu.Unlock()
	if ok {
		c.Close()
	}
}

// refreshPeers folds the discovery cache into the peer table: new peers
// appear, moved peers rebind to their new URL, and entries past their TTL
// drop out (with their cached sessions).
func (s *Scheduler) refreshPeers() {
	entries := s.peers.PeersFor("job", s.cfg.ServerName)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if now.After(e.Expires) {
			continue
		}
		seen[e.Server] = true
		p, ok := s.table[e.Server]
		if !ok {
			p = &peer{name: e.Server}
			s.table[e.Server] = p
			s.registerBreakerGauge(e.Server)
		}
		if p.url != e.URL {
			p.url = e.URL // service moved: rebind (location independence)
		}
		p.expires = e.Expires
	}
	for name, p := range s.table {
		if !seen[name] && now.After(p.expires) {
			delete(s.table, name)
			s.breakers.Forget(p.url)
			for key := range s.sessions {
				if len(key) > len(name) && key[:len(name)+1] == name+"|" {
					delete(s.sessions, key)
				}
			}
		}
	}
}

// pollPeers refreshes every peer's load score from its public job.stats.
// The poll doubles as the breaker recovery path: an open breaker past
// its cooldown admits exactly this call as the half-open probe, and a
// successful answer re-closes it.
func (s *Scheduler) pollPeers() {
	s.mu.Lock()
	peers := make([]*peer, 0, len(s.table))
	for _, p := range s.table {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		done, err := s.breakers.Allow(p.url)
		if err != nil {
			// Breaker open inside its cooldown: skip the peer this cycle.
			s.setAlive(p, false)
			continue
		}
		c, err := s.conn(p.url)
		if err != nil {
			done(false)
			s.setAlive(p, false)
			continue
		}
		v, err := c.Call("", "", "job.stats")
		if err != nil && !isFault(err) {
			done(false)
			s.dropConn(p.url)
			s.setAlive(p, false)
			continue
		}
		done(true)
		st, ok := v.(map[string]any)
		if !ok {
			s.setAlive(p, false)
			continue
		}
		s.mu.Lock()
		p.queued, _ = rpc.CoerceInt(st["queued"])
		p.running, _ = rpc.CoerceInt(st["running"])
		p.workers, _ = rpc.CoerceInt(st["workers"])
		p.alive = true
		s.mu.Unlock()
	}
}

func (s *Scheduler) setAlive(p *peer, alive bool) {
	s.mu.Lock()
	p.alive = alive
	s.mu.Unlock()
}

// watchRemote tracks forwarded jobs on their executing peers, pulls
// back terminal results, and falls back to local execution when a peer
// stops answering. With a push subscription (Config.EventDial) to a
// peer, its jobs are status-polled only when an event says something
// happened (plus a coarse safety-net sweep); without one — or when the
// peer lacks /ws — every job is batch-polled each cycle as before.
func (s *Scheduler) watchRemote() {
	remote := s.jobs.RemoteJobs()
	if len(remote) == 0 {
		s.pruneWatches(nil)
		return
	}
	// Group by (endpoint, delegated session): each group is one push
	// subscription, and one batched status sweep under the owner's
	// identity for whatever jobs are due.
	groups := make(map[watchKey][]*jobsvc.Job)
	for _, j := range remote {
		if j.RemoteID == "" || j.PeerURL == "" {
			// A remote record with no peer binding can only predate this
			// process: cycles are serialized (cycleMu) and forward()
			// resolves every claim to MarkForwarded or fallback before its
			// cycle ends, so nothing in-flight looks like this. It means a
			// past run crashed between ClaimForward and MarkForwarded —
			// no peer holds the job, so reclaim it for the local queue
			// rather than skipping it forever.
			s.fallback(j, "recovered remote record with no peer binding; re-queued locally")
			continue
		}
		k := watchKey{j.PeerURL, j.PeerSession}
		groups[k] = append(groups[k], j)
	}
	s.pruneWatches(groups)
	for k, jobs := range groups {
		// Establish the push subscription BEFORE polling: any transition
		// after this point raises an event, and the initial poll below
		// covers everything that happened before it. No gap.
		w := s.ensureWatch(k)
		due, flagged := s.pollDue(w, jobs)
		if len(due) == 0 {
			continue
		}
		// Breaker admission: an open peer still advances each job's
		// failed-poll count, so work on a dead peer falls back through the
		// usual DeadPolls tolerance instead of waiting out the cooldown.
		done, err := s.breakers.Allow(k.url)
		if err != nil {
			w.restore(flagged)
			s.failGroup(due, err)
			continue
		}
		c, err := s.conn(k.url)
		if err != nil {
			done(false)
			w.restore(flagged)
			s.failGroup(due, err)
			continue
		}
		calls := make([]Call, len(due))
		for i, j := range due {
			calls[i] = Call{Method: "job.status", Params: []any{j.RemoteID}, Trace: j.Trace}
		}
		s.mu.Lock()
		s.stats.StatusRPCs += uint64(len(calls))
		s.mu.Unlock()
		results, err := c.Batch(k.token, calls)
		if err != nil || len(results) != len(due) {
			done(err == nil || isFault(err))
			s.dropConn(k.url)
			w.restore(flagged)
			s.failGroup(due, err)
			continue
		}
		done(true)
		now := time.Now()
		for i, r := range results {
			j := due[i]
			s.mu.Lock()
			s.lastPoll[j.ID] = now
			s.mu.Unlock()
			if r.Err != nil {
				if isAuthFault(r.Err) {
					// The delegated session expired while the job was
					// still remote. Renew it and retry next cycle — the
					// remote attempt may well be running, and requeuing
					// now would execute the job twice.
					s.renewDelegation(c, j)
					s.failJob(j, r.Err)
					continue
				}
				// The peer answered but no longer vouches for the job
				// (lost its table after a restart): immediate fallback.
				s.fallback(j, "peer lost job: "+r.Err.Error())
				continue
			}
			st, _ := r.Value.(map[string]any)
			state, _ := st["state"].(string)
			if !jobsvc.Terminal(state) {
				s.clearFail(j.ID)
				continue
			}
			s.pullBack(c, k.token, j, state)
		}
	}
}

// ensureWatch returns the live push subscription for a group, dialing
// one if the peer supports it. nil means no push coverage this cycle
// (no EventDialer configured, the peer has no /ws, or the last dial
// failed and its backoff has not elapsed) — the caller then polls every
// job in the group.
func (s *Scheduler) ensureWatch(k watchKey) *peerWatch {
	if s.cfg.EventDial == nil {
		return nil
	}
	if s.breakers.State(k.url) == resilience.Open {
		// No point dialing a push subscription at a peer the breaker
		// already knows is down; the recovery probe re-opens the door.
		return nil
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	if w, ok := s.watches[k]; ok {
		w.mu.Lock()
		lost := w.lost
		w.mu.Unlock()
		if !lost {
			s.mu.Unlock()
			return w
		}
		delete(s.watches, k)
	}
	if until, ok := s.noWS[k.url]; ok {
		if time.Now().Before(until) {
			s.mu.Unlock()
			return nil
		}
		delete(s.noWS, k.url)
	}
	s.mu.Unlock()

	st, err := s.cfg.EventDial(k.url, k.token, "type=job.state")
	if err != nil {
		// Peer without a push plane (or dial failure): back off before
		// probing again, and keep batch-polling in the meantime.
		backoff := 30 * s.cfg.PollInterval
		if backoff < 5*time.Second {
			backoff = 5 * time.Second
		}
		s.mu.Lock()
		s.noWS[k.url] = time.Now().Add(backoff)
		s.mu.Unlock()
		s.logger.Printf("metasched: no push events from %s (%v); falling back to polling", k.url, err)
		return nil
	}
	w := &peerWatch{stream: st, ready: make(map[string]bool)}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		st.Close()
		return nil
	}
	if existing, ok := s.watches[k]; ok {
		s.mu.Unlock()
		st.Close()
		return existing
	}
	s.watches[k] = w
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runWatch(w)
	s.logger.Printf("metasched: watching %s over push events", k.url)
	return w
}

// runWatch drains one push subscription, marking jobs whose terminal
// transition arrived so the next cycle polls exactly those, and nudging
// the control loop awake for each.
func (s *Scheduler) runWatch(w *peerWatch) {
	defer s.wg.Done()
	for ev := range w.stream.Events() {
		s.mu.Lock()
		s.stats.PushEvents++
		s.mu.Unlock()
		if ev.Type != "job.state" {
			// Lag markers and anything else we cannot attribute to a
			// specific job: poll the whole group next cycle to resync.
			w.mu.Lock()
			w.pollAll = true
			w.mu.Unlock()
			s.wake()
			continue
		}
		rid := ev.Tags["job_id"]
		if rid == "" {
			continue
		}
		state := ev.Tags["state"]
		if !jobsvc.Terminal(state) {
			continue // progress is nice to know; only terminal states need a pull
		}
		w.mu.Lock()
		w.ready[rid] = true
		w.mu.Unlock()
		s.wake()
	}
	// Stream over: whether the peer restarted or the server is shutting
	// down, stop trusting push coverage for this group.
	w.mu.Lock()
	w.lost = true
	w.pollAll = true
	w.mu.Unlock()
	s.wake()
}

// pollDue selects which of a group's jobs this cycle's status sweep
// should cover. Without push coverage (w == nil) that is all of them;
// with it, the jobs whose terminal event arrived, jobs never polled
// since forwarding (covers transitions that predate the subscription),
// and jobs past the safety-net interval. It consumes the terminal-event
// flags of the jobs it selects before their status RPC goes out, so an
// event arriving while that RPC is in flight flags the job again for the
// next cycle; flagged lists the consumed flags, which a failed sweep
// hands back to restore.
func (s *Scheduler) pollDue(w *peerWatch, jobs []*jobsvc.Job) (due []*jobsvc.Job, flagged []string) {
	if w == nil {
		return jobs, nil
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	pollAll := w.pollAll
	w.pollAll = false
	for _, j := range jobs {
		last, polled := s.lastPoll[j.ID]
		ready := w.ready[j.RemoteID]
		if pollAll || ready || !polled || now.Sub(last) >= s.cfg.WatchSafetyInterval {
			due = append(due, j)
			if ready {
				delete(w.ready, j.RemoteID)
				flagged = append(flagged, j.RemoteID)
			}
		}
	}
	return due, flagged
}

// restore re-flags remote jobs whose terminal event a failed status sweep
// consumed, so the next cycle polls them again.
func (w *peerWatch) restore(flagged []string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	for _, id := range flagged {
		w.ready[id] = true
	}
	w.mu.Unlock()
}

// pruneWatches closes push subscriptions for groups that no longer have
// remote jobs (and dead streams), so watches do not outlive the work
// they cover.
func (s *Scheduler) pruneWatches(groups map[watchKey][]*jobsvc.Job) {
	var drop []*peerWatch
	s.mu.Lock()
	for k, w := range s.watches {
		w.mu.Lock()
		lost := w.lost
		w.mu.Unlock()
		if lost || len(groups[k]) == 0 {
			delete(s.watches, k)
			drop = append(drop, w)
		}
	}
	s.mu.Unlock()
	for _, w := range drop {
		w.stream.Close()
	}
}

// pullBack fetches a terminal remote job's output and finalizes the local
// shadow record. Inline heads come back in the job.output envelope;
// staged artifacts are fetched from the executing peer by chunk-iterating
// its file.read under the job owner's delegated session (the peer's
// artifact ACL is scoped to exactly that DN) and re-staged into the local
// artifact tree, so the shadow record converges to the same shape as a
// locally executed job. A failed transfer leaves the record remote and
// retries next cycle; persistent failure degrades through the usual
// DeadPolls fallback.
func (s *Scheduler) pullBack(c Conn, token string, j *jobsvc.Job, state string) {
	v, err := c.Call(token, j.Trace, "job.output", j.RemoteID)
	out, _ := v.(map[string]any)
	if err != nil || out == nil {
		s.failJob(j, err)
		return
	}
	res := jobsvc.ExecResult{}
	res.Stdout, _ = out["stdout"].(string)
	res.Stderr, _ = out["stderr"].(string)
	res.ExitCode, _ = rpc.CoerceInt(out["exit_code"])
	res.Truncated, _ = out["truncated"].(bool)
	res.StdoutTruncated, _ = out["stdout_truncated"].(bool)
	res.StderrTruncated, _ = out["stderr_truncated"].(bool)
	if arts, ok := out["artifacts"].([]any); ok && len(arts) > 0 && s.jobs.StagingEnabled() {
		staged, pulled, err := s.pullArtifacts(c, token, j, arts)
		if err != nil {
			s.jobs.DiscardRemoteStage(j.ID)
			s.failJob(j, fmt.Errorf("artifact pull-back from %s: %w", j.Peer, err))
			return
		}
		res.Artifacts = staged
		s.mu.Lock()
		s.stats.ArtifactBytes += uint64(pulled)
		s.mu.Unlock()
	}
	errMsg := ""
	if state == jobsvc.StateFailed || state == jobsvc.StateCancelled {
		errMsg = fmt.Sprintf("remote %s on peer %s", state, j.Peer)
	}
	if err := s.jobs.CompleteRemote(j.ID, state, res, errMsg); err != nil {
		s.logger.Printf("metasched: finalize %s: %v", j.ID, err)
		return
	}
	s.mu.Lock()
	s.stats.PulledBack++
	delete(s.failPolls, j.ID)
	delete(s.lastPoll, j.ID)
	s.mu.Unlock()
}

// artifactChunk is the file.read chunk size used for artifact transfers.
const artifactChunk = 1 << 20

// pullArtifacts fetches every artifact referenced by a peer's job.output
// and re-stages it locally, verifying digests. Returns the local
// references and total bytes transferred.
func (s *Scheduler) pullArtifacts(c Conn, token string, j *jobsvc.Job, arts []any) ([]jobsvc.Artifact, int64, error) {
	out := make([]jobsvc.Artifact, 0, len(arts))
	var pulled int64
	for _, e := range arts {
		m, _ := e.(map[string]any)
		if m == nil {
			continue
		}
		name, _ := m["name"].(string)
		path, _ := m["path"].(string)
		wantMD5, _ := m["md5"].(string)
		if name == "" || path == "" {
			continue
		}
		// An artifact bigger than the local spool cap could never verify
		// here — transferring it would truncate into a guaranteed digest
		// mismatch and a futile retry loop. Skip it explicitly; the
		// record keeps its truncated heads.
		if sz, ok := rpc.CoerceInt(m["size"]); ok && int64(sz) > s.jobs.SpoolLimit() {
			s.logger.Printf("metasched: skipping artifact %q of %s: %d bytes exceeds the local spool limit %d", name, j.ID, sz, s.jobs.SpoolLimit())
			continue
		}
		r := &remoteFileReader{c: c, token: token, trace: j.Trace, path: path}
		a, err := s.jobs.StageRemoteArtifact(j.ID, name, r)
		if err != nil {
			return nil, 0, fmt.Errorf("stage %q: %w", name, err)
		}
		if wantMD5 != "" && a.MD5 != wantMD5 {
			return nil, 0, fmt.Errorf("artifact %q digest mismatch (got %s, peer reported %s)", name, a.MD5, wantMD5)
		}
		// A stream the peer's own spool cap cut short stays marked: the
		// re-staged copy is byte-identical but still not the full stream.
		a.Partial, _ = m["partial"].(bool)
		out = append(out, a)
		pulled += a.Size
	}
	return out, pulled, nil
}

// remoteFileReader adapts a peer's chunk-iterated file.read to
// io.Reader, terminating on the response's eof flag (no zero-byte probe
// round trip).
type remoteFileReader struct {
	c      Conn
	token  string
	trace  string
	path   string
	offset int
	buf    []byte
	eof    bool
	err    error
}

func (r *remoteFileReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		if r.eof {
			return 0, io.EOF
		}
		v, err := r.c.Call(r.token, r.trace, "file.read", r.path, r.offset, artifactChunk)
		if err != nil {
			r.err = err
			return 0, err
		}
		m, ok := v.(map[string]any)
		if !ok {
			r.err = fmt.Errorf("file.read returned %T", v)
			return 0, r.err
		}
		data, _ := rpc.CoerceBytes(m["data"])
		r.eof, _ = m["eof"].(bool)
		r.offset += len(data)
		r.buf = data
		if len(data) == 0 {
			if r.eof {
				return 0, io.EOF
			}
			// Empty chunk without eof would loop at this offset forever.
			r.err = fmt.Errorf("file.read returned no data and no eof at offset %d", r.offset)
			return 0, r.err
		}
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// failGroup records one failed watch poll for every job in a group and
// falls back the ones past the tolerance.
func (s *Scheduler) failGroup(jobs []*jobsvc.Job, err error) {
	for _, j := range jobs {
		s.failJob(j, err)
	}
}

func (s *Scheduler) failJob(j *jobsvc.Job, err error) {
	s.mu.Lock()
	s.failPolls[j.ID]++
	n := s.failPolls[j.ID]
	s.mu.Unlock()
	if n < s.cfg.DeadPolls {
		return
	}
	reason := fmt.Sprintf("peer %s unreachable after %d polls; re-queued locally", j.Peer, n)
	if err != nil {
		reason = fmt.Sprintf("peer %s unreachable after %d polls (%v); re-queued locally", j.Peer, n, err)
	}
	// The peer may only be partitioned and still running this job
	// (at-least-once fallback): remember the remote binding so the copy
	// can be cancelled if the peer answers again.
	if j.RemoteID != "" && j.PeerURL != "" {
		s.mu.Lock()
		s.orphans[j.PeerURL] = append(s.orphans[j.PeerURL], orphan{remoteID: j.RemoteID, token: j.PeerSession, trace: j.Trace})
		s.mu.Unlock()
	}
	s.fallback(j, reason)
}

// orphan is the remote copy of a job reclaimed locally after its peer
// stopped answering; if the peer was only partitioned the copy may still
// be running, so the control loop best-effort cancels it on return.
type orphan struct {
	remoteID string
	token    string // delegated session the copy was submitted under
	trace    string // the job's trace, kept on the cancel call
	cycles   int    // reap attempts so far; dropped at orphanMaxCycles
}

// orphanMaxCycles bounds how long an orphaned remote copy is remembered
// — the delegated session it would be cancelled under expires long
// before a peer absent this many cycles comes back.
const orphanMaxCycles = 150

// reapOrphans tries to cancel remote copies of jobs reclaimed from
// unresponsive peers, closing (best-effort) the duplicate-execution
// window of the at-least-once fallback. An entry is dropped once the
// peer answers the cancel — whatever the verdict: cancelled, already
// terminal, unknown job, or expired session all mean there is nothing
// further to do — and retained across cycles while the peer stays
// unreachable, up to orphanMaxCycles.
func (s *Scheduler) reapOrphans() {
	s.mu.Lock()
	pending := s.orphans
	s.orphans = make(map[string][]orphan)
	s.mu.Unlock()
	for url, orphans := range pending {
		done, err := s.breakers.Allow(url)
		if err != nil {
			// Breaker open: the peer is known-dead, keep the copies without
			// burning a round trip on them.
			s.keepOrphans(url, orphans)
			continue
		}
		c, err := s.conn(url)
		if err != nil {
			done(false)
			s.keepOrphans(url, orphans)
			continue
		}
		ok := true
		for i, o := range orphans {
			_, err := c.Call(o.token, o.trace, "job.cancel", o.remoteID)
			if err != nil && !isFault(err) {
				// Transport failure: the peer is still unreachable. Keep
				// this and the remaining copies for a later cycle.
				ok = false
				s.dropConn(url)
				s.keepOrphans(url, orphans[i:])
				break
			}
			if err != nil {
				// The peer answered with a fault — unknown job, already
				// terminal, expired session. Nothing left to cancel, but
				// the copy may have run to completion there: say so.
				s.logger.Printf("metasched: orphaned remote copy %s on %s not cancelled (%v); it may have completed remotely", o.remoteID, url, err)
				continue
			}
			s.logger.Printf("metasched: cancelled orphaned remote copy %s on %s", o.remoteID, url)
		}
		done(ok)
	}
}

// keepOrphans re-files orphans that could not be reaped this cycle,
// aging each and dropping the ones past orphanMaxCycles.
func (s *Scheduler) keepOrphans(url string, orphans []orphan) {
	var keep []orphan
	for _, o := range orphans {
		o.cycles++
		if o.cycles < orphanMaxCycles {
			keep = append(keep, o)
		}
	}
	if len(keep) == 0 {
		return
	}
	s.mu.Lock()
	s.orphans[url] = append(s.orphans[url], keep...)
	s.mu.Unlock()
}

// fallback returns one forwarded job to the local queue.
func (s *Scheduler) fallback(j *jobsvc.Job, reason string) {
	if err := s.jobs.RequeueLocal(j.ID, reason); err != nil {
		s.logger.Printf("metasched: requeue %s: %v", j.ID, err)
		return
	}
	s.mu.Lock()
	s.stats.Fallbacks++
	delete(s.failPolls, j.ID)
	delete(s.lastPoll, j.ID)
	s.mu.Unlock()
}

func (s *Scheduler) clearFail(id string) {
	s.mu.Lock()
	delete(s.failPolls, id)
	s.mu.Unlock()
}

// forward claims queued jobs beyond the pressure threshold and pushes
// them to the least-loaded live peers.
func (s *Scheduler) forward() {
	over := s.jobs.Stats().Queued - s.cfg.Pressure
	if over <= 0 {
		return
	}
	s.mu.Lock()
	cands := make([]*peer, 0, len(s.table))
	for _, p := range s.table {
		// Only fully healthy peers get new work: a half-open breaker means
		// the peer is still proving itself on the cheap stats probe.
		if p.alive && p.free() > 0 && s.breakers.State(p.url) == resilience.Closed {
			cands = append(cands, p)
		}
	}
	// Most idle capacity first; stable tiebreak on name for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if fi, fj := cands[i].free(), cands[j].free(); fi != fj {
			return fi > fj
		}
		return cands[i].name < cands[j].name
	})
	s.mu.Unlock()
	for _, p := range cands {
		if over <= 0 {
			return
		}
		n := p.free()
		if n > over {
			n = over
		}
		if n > s.cfg.MaxForward {
			n = s.cfg.MaxForward
		}
		claimed := s.jobs.ClaimForward(n, p.name)
		if len(claimed) == 0 {
			return // queue drained underneath us
		}
		over -= len(claimed)
		s.forwardTo(p, claimed)
	}
}

// forwardTo submits claimed jobs to one peer, batched per owner under a
// delegated session. Every job either ends MarkForwarded or back in the
// local queue — none are stranded.
func (s *Scheduler) forwardTo(p *peer, claimed []*jobsvc.Job) {
	byOwner := make(map[string][]*jobsvc.Job)
	for _, j := range claimed {
		byOwner[j.Owner] = append(byOwner[j.Owner], j)
	}
	c, err := s.conn(p.url)
	if err != nil {
		s.penalize(p)
		for _, j := range claimed {
			s.fallback(j, fmt.Sprintf("peer %s unreachable at forward time: %v", p.name, err))
		}
		return
	}
	for owner, jobs := range byOwner {
		token, err := s.delegate(c, p.name, owner)
		if err != nil {
			s.penalize(p)
			for _, j := range jobs {
				s.fallback(j, fmt.Sprintf("delegation to peer %s failed: %v", p.name, err))
			}
			continue
		}
		calls := make([]Call, len(jobs))
		for i, j := range jobs {
			params := []any{j.Command, j.Priority, j.MaxRetries}
			if len(j.Collect) > 0 {
				collect := make([]any, len(j.Collect))
				for k, pat := range j.Collect {
					collect[k] = pat
				}
				params = append(params, collect)
			}
			calls[i] = Call{Method: "job.submit", Params: params, Trace: j.Trace}
			if st := s.cfg.Spans; st != nil && j.Trace != "" {
				// Record the forward edge before the batch leaves, so even a
				// trace whose job dies on the peer can still be assembled;
				// carry the force-sample bit so a sampled trace stays
				// sampled downstream.
				st.Link(j.Trace, p.url)
				calls[i].Sample = st.Sampled(j.Trace)
			}
		}
		results, err := c.Batch(token, calls)
		if err != nil || len(results) != len(jobs) {
			s.dropConn(p.url)
			s.penalize(p)
			for _, j := range jobs {
				s.fallback(j, fmt.Sprintf("forward to peer %s failed: %v", p.name, err))
			}
			continue
		}
		for i, r := range results {
			j := jobs[i]
			if r.Err != nil {
				if isAuthFault(r.Err) {
					s.dropSession(p.name, owner)
				}
				s.fallback(j, fmt.Sprintf("peer %s refused job: %v", p.name, r.Err))
				continue
			}
			rid, _ := r.Value.(string)
			if rid == "" {
				s.fallback(j, fmt.Sprintf("peer %s returned no job id", p.name))
				continue
			}
			if err := s.jobs.MarkForwarded(j.ID, p.url, rid, token); err != nil {
				// The peer holds the job but the local binding could not
				// be persisted; without it the watch loop would skip the
				// record forever. Withdraw the remote copy best-effort
				// and run the job locally instead.
				s.logger.Printf("metasched: bind %s->%s@%s: %v", j.ID, rid, p.name, err)
				c.Call(token, j.Trace, "job.cancel", rid)
				s.fallback(j, fmt.Sprintf("could not record forwarding to %s: %v", p.name, err))
				continue
			}
			s.mu.Lock()
			s.stats.Forwarded++
			p.queued++ // charge the table so this cycle doesn't overcommit
			s.mu.Unlock()
		}
	}
}

// penalize force-opens a peer's breaker after a failed forward or
// delegation handoff: the peer sits out until the cooldown elapses and
// the job.stats recovery probe succeeds — the old fixed penalty-cycle
// sit-out, now sharing state with the transport-level breaker.
func (s *Scheduler) penalize(p *peer) {
	s.breakers.For(p.url).ForceOpen()
}

func isAuthFault(err error) bool {
	var f *rpc.Fault
	if errors.As(err, &f) {
		return f.Code == rpc.CodeNotAuthorized || f.Code == rpc.CodeAccessDenied
	}
	return false
}

// isFault reports whether err is a structured RPC fault — i.e. the peer
// answered, as opposed to a transport-level failure.
func isFault(err error) bool {
	var f *rpc.Fault
	return errors.As(err, &f)
}

// delegate returns a session on the named peer acting as owner,
// performing the delegation handoff on first use: mint a one-time secret
// locally, redeem it on the peer, which calls back proxy.check_delegation
// here to verify.
func (s *Scheduler) delegate(c Conn, peerName, owner string) (string, error) {
	key := peerName + "|" + owner
	s.mu.Lock()
	token, ok := s.sessions[key]
	s.mu.Unlock()
	if ok {
		return token, nil
	}
	return s.loginDelegated(c, key, owner)
}

// loginDelegated performs the handoff and caches the resulting session.
func (s *Scheduler) loginDelegated(c Conn, key, owner string) (string, error) {
	dn, err := pki.ParseDN(owner)
	if err != nil {
		return "", fmt.Errorf("bad owner DN: %w", err)
	}
	secret, err := s.deleg.IssueDelegation(dn, s.cfg.DelegationTTL)
	if err != nil {
		return "", err
	}
	v, err := c.Call("", "", "proxy.login_delegated", owner, secret, s.cfg.SelfURL())
	if err != nil {
		return "", err
	}
	token, _ := v.(string)
	if token == "" {
		return "", fmt.Errorf("peer returned empty session token")
	}
	s.mu.Lock()
	s.sessions[key] = token
	s.mu.Unlock()
	return token, nil
}

// renewDelegation replaces an expired delegated session for j's owner on
// its executing peer and rebinds the shadow record, so the next watch
// poll authenticates again. Jobs sharing the stale session reuse the
// first renewal's token instead of logging in repeatedly.
func (s *Scheduler) renewDelegation(c Conn, j *jobsvc.Job) {
	key := j.Peer + "|" + j.Owner
	s.mu.Lock()
	token, ok := s.sessions[key]
	if ok && token == j.PeerSession {
		delete(s.sessions, key) // the cached session is the expired one
		ok = false
	}
	s.mu.Unlock()
	if !ok {
		var err error
		token, err = s.loginDelegated(c, key, j.Owner)
		if err != nil {
			s.logger.Printf("metasched: renew delegation for %s on %s: %v", j.ID, j.Peer, err)
			return
		}
	}
	if err := s.jobs.MarkForwarded(j.ID, j.PeerURL, j.RemoteID, token); err != nil {
		s.logger.Printf("metasched: rebind %s after renewal: %v", j.ID, err)
	}
}

func (s *Scheduler) dropSession(peerName, owner string) {
	s.mu.Lock()
	delete(s.sessions, peerName+"|"+owner)
	s.mu.Unlock()
}

// --- jobsvc.RemoteController ---

// Refresh returns a live view of a forwarded job from its executing
// peer: status always, outputs once terminal — one system.multicall
// round trip.
func (s *Scheduler) Refresh(j *jobsvc.Job) (*jobsvc.Job, error) {
	if j.PeerURL == "" || j.RemoteID == "" {
		return nil, fmt.Errorf("metasched: job %s has no remote binding", j.ID)
	}
	done, err := s.breakers.Allow(j.PeerURL)
	if err != nil {
		return nil, fmt.Errorf("metasched: refresh %s: peer %s: %w", j.ID, j.Peer, err)
	}
	c, err := s.conn(j.PeerURL)
	if err != nil {
		done(false)
		return nil, err
	}
	results, err := c.Batch(j.PeerSession, []Call{
		{Method: "job.status", Params: []any{j.RemoteID}, Trace: j.Trace},
		{Method: "job.output", Params: []any{j.RemoteID}, Trace: j.Trace},
	})
	if err != nil || len(results) != 2 {
		done(err == nil || isFault(err))
		s.dropConn(j.PeerURL)
		return nil, fmt.Errorf("metasched: refresh %s on %s: %v", j.ID, j.Peer, err)
	}
	done(true)
	if results[0].Err != nil {
		return nil, results[0].Err
	}
	st, _ := results[0].Value.(map[string]any)
	live := *j // the shadow record, overlaid with the peer's view
	if state, ok := st["state"].(string); ok && state != "" {
		// While the peer still has the job queued/running the local state
		// remains "remote" (the peer name says where); terminal states
		// surface directly so status is transparent ahead of pull-back.
		if jobsvc.Terminal(state) {
			live.State = state
		}
	}
	if n, ok := rpc.CoerceInt(st["attempts"]); ok {
		live.Attempts = n
	}
	if lu, ok := st["local_user"].(string); ok {
		live.LocalUser = lu
	}
	if results[1].Err == nil {
		if out, ok := results[1].Value.(map[string]any); ok {
			live.Stdout, _ = out["stdout"].(string)
			live.Stderr, _ = out["stderr"].(string)
			live.ExitCode, _ = rpc.CoerceInt(out["exit_code"])
			live.Truncated, _ = out["truncated"].(bool)
			live.StdoutTruncated, _ = out["stdout_truncated"].(bool)
			live.StderrTruncated, _ = out["stderr_truncated"].(bool)
			// Artifact references are NOT surfaced from the live peer
			// view: they name the peer's namespace, which the submitting
			// server's clients cannot fetch through. The local record
			// gains fetchable references when the watch loop pulls the
			// result back and re-stages the artifacts.
			live.Artifacts = nil
		}
	}
	return &live, nil
}

// CancelRemote relays a cancellation to the executing peer.
func (s *Scheduler) CancelRemote(j *jobsvc.Job) (bool, error) {
	if j.PeerURL == "" || j.RemoteID == "" {
		return false, fmt.Errorf("metasched: job %s has no remote binding", j.ID)
	}
	done, err := s.breakers.Allow(j.PeerURL)
	if err != nil {
		return false, fmt.Errorf("metasched: cancel %s: peer %s: %w", j.ID, j.Peer, err)
	}
	c, err := s.conn(j.PeerURL)
	if err != nil {
		done(false)
		return false, err
	}
	v, err := c.Call(j.PeerSession, j.Trace, "job.cancel", j.RemoteID)
	done(err == nil || isFault(err))
	if err != nil {
		return false, err
	}
	b, _ := v.(bool)
	return b, nil
}

var _ jobsvc.RemoteController = (*Scheduler)(nil)
