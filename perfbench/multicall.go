package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"clarens"
)

// multicallTLS is the production transport: TLS 1.3 + HTTP/2 on one
// multiplexed connection, a client authenticated by a two-level proxy
// chain, and JSON-RPC system.multicall batches of 32 seeded sub-calls.
type multicallTLS struct {
	batches [][]subCall
	corrupt bool
	seed    int64
}

// subCall is one generated multicall entry.
type subCall struct {
	method string
	arg    string // system.echo's argument
}

const (
	multicallBatch = 32
	multicallPool  = 256 // distinct batches, cycled
)

func newMulticall(seed int64, corrupt bool) *multicallTLS {
	rng := rand.New(rand.NewSource(seed))
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_.:/"
	w := &multicallTLS{corrupt: corrupt, seed: seed}
	for range multicallPool {
		batch := make([]subCall, multicallBatch)
		for i := range batch {
			switch r := rng.Intn(10); {
			case r < 6:
				arg := make([]byte, 16+rng.Intn(241))
				for j := range arg {
					arg[j] = letters[rng.Intn(len(letters))]
				}
				batch[i] = subCall{method: "system.echo", arg: string(arg)}
			case r < 8:
				batch[i] = subCall{method: "system.whoami"}
			default:
				batch[i] = subCall{method: "system.ping"}
			}
		}
		w.batches = append(w.batches, batch)
	}
	return w
}

func (w *multicallTLS) digest() string {
	h := sha256.New()
	for _, b := range w.batches {
		for _, s := range b {
			fmt.Fprintf(h, "%s\x00%s\x00", s.method, s.arg)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *multicallTLS) warmup() int { return 20 }

type multicallEnv struct {
	w      *multicallTLS
	srv    *clarens.Server
	client *clarens.Client
	dn     string // the proxy chain's effective DN: the end-entity user
}

func (w *multicallTLS) setup(b *bench, tr *tracer) (env, error) {
	ca, err := clarens.NewCA(clarens.MustParseDN("/O=perfbench/CN=Perfbench CA"))
	if err != nil {
		return nil, err
	}
	host, err := ca.IssueHost(clarens.MustParseDN("/O=perfbench/OU=Services/CN=host\\/localhost"),
		[]string{"localhost", "127.0.0.1"}, time.Hour)
	if err != nil {
		return nil, err
	}
	user, err := ca.IssueUser(clarens.MustParseDN(fmt.Sprintf("/O=perfbench/OU=People/CN=Analyst %d", w.seed)), time.Hour)
	if err != nil {
		return nil, err
	}
	// The user delegates to a portal, the portal to a job agent: the
	// client presents the agent's two-level RFC 3820 proxy chain.
	portal, err := clarens.NewProxy(user, time.Hour)
	if err != nil {
		return nil, err
	}
	agent, err := clarens.NewProxy(portal, time.Hour)
	if err != nil {
		return nil, err
	}
	srv, err := clarens.NewServer(clarens.Config{
		Name: "multicall-tls",
		TLS:  &clarens.TLSConfig{Identity: host, ClientCAs: ca.Pool(), TicketRotate: time.Hour},
	})
	if err != nil {
		return nil, err
	}
	e := &multicallEnv{w: w, srv: srv, dn: user.DN().String()}
	if err := tr.instrument(srv.Core()); err != nil {
		e.close()
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	e.client, err = clarens.Dial(srv.URL(), clarens.WithProtocol("jsonrpc"), clarens.WithRootCAs(ca.Pool()),
		clarens.WithIdentity(agent), clarens.WithMaxConns(1))
	if err != nil {
		e.close()
		return nil, err
	}
	if w.corrupt {
		e.dn += "~"
	}
	return e, nil
}

func (e *multicallEnv) step(c *caller) {
	batch := e.w.batches[c.input(len(e.w.batches))]
	op := c.tr.beginOp()
	start := time.Now()
	b := e.client.Batch()
	for _, s := range batch {
		if s.method == "system.echo" {
			b.Add(s.method, s.arg)
		} else {
			b.Add(s.method)
		}
	}
	h, ctx := c.tr.startCall(op)
	res, err := b.RunCtx(ctx)
	c.tr.endCall(h)
	if err == nil {
		err = e.check(batch, res)
	}
	c.tr.endOp(op)
	c.done(start, err)
}

// check verifies every sub-call's reply.
func (e *multicallEnv) check(batch []subCall, res []clarens.BatchResult) error {
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("%s (sub-call %d): %v", batch[i].method, i, r.Err)
		}
		var want string
		switch batch[i].method {
		case "system.echo":
			want = batch[i].arg
		case "system.whoami":
			want = e.dn
		case "system.ping":
			want = "pong"
		}
		if got, _ := r.Result.(string); got != want {
			return fmt.Errorf("%s (sub-call %d): got %q, want %q", batch[i].method, i, r.Result, want)
		}
	}
	return nil
}

func (e *multicallEnv) snapshot() snap { return snap{conn: e.client.ConnStats()} }

func (e *multicallEnv) mix() []mixItem {
	return []mixItem{{key: "system.multicall", perOp: 1, dispatch: true}}
}

func (e *multicallEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	e.srv.Close()
}
