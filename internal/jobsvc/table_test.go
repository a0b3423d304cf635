package jobsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"clarens/internal/core"
)

// wakeArmed reports whether a waiter is parked on the job's wake channel.
func (s *Service) wakeArmed(id string) bool {
	s.tabMu.RLock()
	defer s.tabMu.RUnlock()
	_, ok := s.wake[id]
	return ok
}

// waitAsync runs waitTerminal on its own goroutine and returns where its
// outcome arrives.
func waitAsync(ctx context.Context, s *Service, id string, timeout time.Duration) <-chan waitResult {
	out := make(chan waitResult, 1)
	go func() {
		j, err := s.waitTerminal(ctx, id, timeout)
		out <- waitResult{j, err}
	}()
	return out
}

type waitResult struct {
	j   *Job
	err error
}

// TestGetAndListReturnCopies: callers own what Get and List return, so
// changing a result, down to its slices, leaves the table alone.
func TestGetAndListReturnCopies(t *testing.T) {
	srv := testServer(t, "")
	s := newService(t, srv, Config{Workers: 1, OutputLimit: 16, Artifacts: newDirStager(t)}, bulkExec(1000))
	j, err := s.Submit(alice, "bulk", 0, 0, "*.root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Get(j.ID)
	if len(want.Artifacts) == 0 || len(want.Collect) == 0 {
		t.Fatalf("job has artifacts %v, collect %v; the test needs both", want.Artifacts, want.Collect)
	}
	before, _ := json.Marshal(want)

	mutate := func(got *Job) {
		got.State, got.Stdout = StateQueued, "changed"
		got.Artifacts[0].Path = "/elsewhere"
		got.Collect[0] = "*"
	}
	got, _ := s.Get(j.ID)
	mutate(got)
	jobs, err := s.List("", "")
	if err != nil || len(jobs) != 1 {
		t.Fatalf("List = %v, %v", jobs, err)
	}
	mutate(jobs[0])

	after, _ := s.Get(j.ID)
	if now, _ := json.Marshal(after); !bytes.Equal(now, before) {
		t.Errorf("record changed through a returned copy:\nbefore %s\nafter  %s", before, now)
	}
}

// TestListSubmissionOrder: List returns jobs in the order they were
// submitted, filtered by owner and state.
func TestListSubmissionOrder(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	defer close(g.gate)
	var ids, aliceIDs []string
	for i := 0; i < 20; i++ {
		owner := alice
		if i%3 == 0 {
			owner = bob
		}
		j, err := s.Submit(owner, fmt.Sprintf("job %d", i), i%4, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		if i%3 != 0 {
			aliceIDs = append(aliceIDs, j.ID)
		}
	}
	check := func(owner, state string, want []string) {
		t.Helper()
		jobs, err := s.List(owner, state)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.ID)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("List(%q, %q) = %v, want %v", owner, state, got, want)
		}
	}
	check("", "", ids)
	check(alice.String(), "", aliceIDs)
	// The one worker is parked on the gate with the first job it claimed;
	// every other job is still queued.
	waitFor(t, func() bool { return len(g.order()) == 1 })
	running, _ := s.List("", StateRunning)
	if len(running) != 1 {
		t.Fatalf("running jobs = %d, want 1", len(running))
	}
	var queued []string
	for _, id := range ids {
		if id != running[0].ID {
			queued = append(queued, id)
		}
	}
	check("", StateQueued, queued)
}

// TestWaitWakesOnCompletion: a waiter parked on a running job returns the
// terminal record once the executor finishes, with no poll to fall back
// on.
func TestWaitWakesOnCompletion(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	j, err := s.Submit(alice, "gated", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	res := waitAsync(context.Background(), s, j.ID, time.Minute)
	waitFor(t, func() bool { return s.wakeArmed(j.ID) })
	close(g.gate)
	r := <-res
	if r.err != nil || r.j.State != StateDone || r.j.Stdout != "gated" {
		t.Fatalf("wait = %+v, %v; want the done record", r.j, r.err)
	}
}

// TestConcurrentWaiters: many waiters on many jobs all see their job
// finish.
func TestConcurrentWaiters(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 4, MaxPerOwner: -1}, g.exec)
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := s.Submit(alice, fmt.Sprintf("job %d", i), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j, err := s.Wait(id, time.Minute)
				if err != nil || j.State != StateDone {
					t.Errorf("wait %s = %+v, %v", id, j, err)
				}
			}()
		}
	}
	close(g.gate)
	wg.Wait()
}

// TestWaitVanishedJob: a job removed from the table while waited on is
// an error for the waiter. Delete refuses non-terminal jobs, so the test
// removes the record the way Delete does, at the point a waiter could
// otherwise only reach by losing a race with a terminal transition.
func TestWaitVanishedJob(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	defer close(g.gate)
	j, err := s.Submit(alice, "gated", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	res := waitAsync(context.Background(), s, j.ID, time.Minute)
	waitFor(t, func() bool { return s.wakeArmed(j.ID) })
	s.mu.Lock()
	if err := srv.Store().Delete(bucket, j.ID); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.setRecord(j.ID, nil)
	s.mu.Unlock()
	if r := <-res; r.err == nil || !strings.Contains(r.err.Error(), "no such job") {
		t.Fatalf("wait on a vanished job = %+v, %v; want a no-such-job error", r.j, r.err)
	}
}

// TestWaitReturnsLastRecord: at the timeout and on a cancelled context,
// waitTerminal returns the newest record, including changes made while
// it waited.
func TestWaitReturnsLastRecord(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	defer close(g.gate)
	j, err := s.Submit(alice, "gated", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })

	got, err := s.waitTerminal(context.Background(), j.ID, 10*time.Millisecond)
	if err != nil || got.State != StateRunning {
		t.Fatalf("timed-out wait = %+v, %v; want the running record", got, err)
	}
	if _, err := s.Wait(j.ID, 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "still running") {
		t.Errorf("Wait past its timeout = %v, want a still-running error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	res := waitAsync(ctx, s, j.ID, time.Minute)
	waitFor(t, func() bool { return s.wakeArmed(j.ID) })
	// Flag the running job: the waiter wakes, finds it still running and
	// parks again on the new record.
	if changed, err := s.Cancel(j.ID); err != nil || !changed {
		t.Fatalf("cancel = %v, %v", changed, err)
	}
	waitFor(t, func() bool { return s.wakeArmed(j.ID) })
	cancel()
	r := <-res
	if r.err != nil || r.j.State != StateRunning || !r.j.Cancel {
		t.Fatalf("cancelled wait = %+v, %v; want the running record with the cancel flag", r.j, r.err)
	}
}

// TestDeleteLeavesNoWakeEntry: wake channels left by waiters that gave up
// are gone once the job changes, and nothing of a deleted job stays in
// the table.
func TestDeleteLeavesNoWakeEntry(t *testing.T) {
	srv := testServer(t, "")
	g := &gateExec{gate: make(chan struct{})}
	s := newService(t, srv, Config{Workers: 1}, g.exec)
	j, err := s.Submit(alice, "gated", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(g.order()) == 1 })
	if got, _ := s.waitTerminal(context.Background(), j.ID, time.Millisecond); got.State != StateRunning {
		t.Fatalf("state = %s, want running", got.State)
	}
	if !s.wakeArmed(j.ID) {
		t.Fatal("a timed-out waiter leaves its wake channel until the job changes")
	}
	close(g.gate)
	if _, err := s.Wait(j.ID, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	s.tabMu.RLock()
	defer s.tabMu.RUnlock()
	if len(s.wake) != 0 || len(s.tab) != 0 {
		t.Errorf("after Delete: %d wake entries, %d table entries; want none", len(s.wake), len(s.tab))
	}
}

// TestTableMatchesStoreAfterRestart: the table a restarted service builds
// holds exactly the records in the store, deleted jobs included as gone.
func TestTableMatchesStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, err := core.NewServer(core.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(srv1, Config{Workers: 2}, echoExec, nil, nil, "test")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, cmd := range []string{"echo a", "fail", "echo b", "echo c"} {
		j, err := s1.Submit(alice, cmd, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Wait(j.ID, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := s1.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := testServer(t, dir)
	s := newService(t, srv2, Config{Workers: 1}, echoExec)
	var stored [][]byte
	if err := srv2.Store().ForEach(bucket, func(key string, value []byte) error {
		var j Job
		if err := json.Unmarshal(value, &j); err != nil {
			return err
		}
		b, _ := json.Marshal(&j)
		stored = append(stored, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	jobs, _ := s.List("", "")
	if len(jobs) != len(stored) || len(jobs) != 3 {
		t.Fatalf("table has %d jobs, store %d; want 3 each", len(jobs), len(stored))
	}
	for i, j := range jobs {
		if b, _ := json.Marshal(j); !bytes.Equal(b, stored[i]) {
			t.Errorf("job %d: table %s, store %s", i, b, stored[i])
		}
	}
	if _, ok := s.Get(ids[2]); ok {
		t.Error("a deleted job came back after the restart")
	}
}
