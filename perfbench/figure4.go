package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"clarens"
)

// figure4 is the paper's Figure 4 traffic: XML-RPC system.list_methods
// over plaintext HTTP/1.1 keep-alive, each call carrying a session token
// so both access checks (session lookup, method ACL) run.
type figure4 struct {
	user    string // session DN, from the seed
	corrupt bool
}

func newFigure4(seed int64, corrupt bool) *figure4 {
	rng := rand.New(rand.NewSource(seed))
	return &figure4{user: fmt.Sprintf("/O=perfbench/OU=People/CN=Analyst %08x", rng.Uint32()), corrupt: corrupt}
}

func (w *figure4) digest() string {
	h := sha256.Sum256([]byte("figure4\x00" + w.user))
	return hex.EncodeToString(h[:])
}

func (w *figure4) warmup() int { return 300 }

type figure4Env struct {
	srv    *clarens.Server
	client *clarens.Client
	want   []string // the server's registered methods
}

func (w *figure4) setup(b *bench, tr *tracer) (env, error) {
	srv, err := clarens.NewServer(clarens.Config{Name: "figure4"})
	if err != nil {
		return nil, err
	}
	e := &figure4Env{srv: srv}
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
	e.want = srv.Core().MethodNames()
	if w.corrupt {
		e.want[0] += "~"
	}
	return e, nil
}

func (e *figure4Env) step(c *caller) {
	op := c.tr.beginOp()
	start := time.Now()
	h, ctx := c.tr.startCall(op)
	v, err := e.client.CallCtx(ctx, "system.list_methods")
	c.tr.endCall(h)
	if err == nil {
		err = sameStrings(v, e.want)
	}
	c.tr.endOp(op)
	c.done(start, err)
}

// sameStrings checks a decoded array of strings against want.
func sameStrings(v any, want []string) error {
	got, ok := v.([]any)
	if !ok {
		return fmt.Errorf("list_methods: got %T, want an array", v)
	}
	if len(got) != len(want) {
		return fmt.Errorf("list_methods: got %d names, want %d", len(got), len(want))
	}
	for i, g := range got {
		if s, _ := g.(string); s != want[i] {
			return fmt.Errorf("list_methods[%d]: got %q, want %q", i, g, want[i])
		}
	}
	return nil
}

func (e *figure4Env) snapshot() snap { return snap{conn: e.client.ConnStats()} }

func (e *figure4Env) mix() []mixItem {
	return []mixItem{{key: "system.list_methods", perOp: 1, dispatch: true}}
}

func (e *figure4Env) close() {
	if e.client != nil {
		e.client.Close()
	}
	e.srv.Close()
}
