package service

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/persist"
)

// separableClient is eight linearly separable 2-D points starting at off.
func separableClient(off float64) comfedsv.Client {
	var c comfedsv.Client
	for i := 0; i < 8; i++ {
		x := off + float64(i)*0.3
		label := 0
		if x > 1 {
			label = 1
		}
		c.X = append(c.X, []float64{x, 1 - x})
		c.Y = append(c.Y, label)
	}
	return c
}

// tinyRequest builds a small deterministic 2-class valuation job: four
// clients with linearly separable 2-D data, exact (non-Monte-Carlo)
// pipeline, few rounds — fast enough to run many times per test.
func tinyRequest(seed int64) Request {
	mk := separableClient
	clients := []comfedsv.Client{mk(-0.4), mk(0.1), mk(0.6), mk(1.1)}
	opts := comfedsv.DefaultOptions(2)
	opts.Rounds = 4
	opts.ClientsPerRound = 2
	opts.Seed = seed
	return Request{Clients: clients, Test: mk(0.25), Options: opts}
}

// wideRequest is tinyRequest over 22 clients, three per round after the
// warm-up round. That round selects all 22, more than exact FedSV
// enumerates, so FedSV samples and wave 0 cannot hold every cell a later
// wave of a tolerance job reaches: its later waves list new cells and
// schedule shards. Under 21 clients they would list none.
func wideRequest(seed int64) Request {
	req := tinyRequest(seed)
	req.Clients = nil
	for i := range 22 {
		req.Clients = append(req.Clients, separableClient(-0.5+float64(i)*0.075))
	}
	req.Options.ClientsPerRound = 3
	return req
}

func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return Status{}
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func TestManagerEndToEndMatchesDirectCall(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	req := tinyRequest(7)
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatal("terminal job missing timestamps")
	}
	if st.Progress.Stage != comfedsv.StageShapley || st.Progress.Done != 1 {
		t.Fatalf("final progress %+v, want shapley stage complete", st.Progress)
	}
	if st.Shards != 1 || st.ShardsDone != 1 {
		t.Fatalf("shard accounting %d/%d, want 1/1 for the exact pipeline", st.ShardsDone, st.Shards)
	}
	got, err := m.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := comfedsv.Value(req.Clients, req.Test, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FedSV, want.FedSV) || !reflect.DeepEqual(got.ComFedSV, want.ComFedSV) {
		t.Fatalf("service report diverges from direct call:\n service: %+v\n direct:  %+v", got, want)
	}
	if math.IsNaN(got.FinalTestLoss) {
		t.Fatal("NaN final test loss")
	}
}

func TestManagerConcurrentJobs(t *testing.T) {
	m := newManager(t, Config{Workers: 4})
	want, err := comfedsv.Value(tinyRequest(3).Clients, tinyRequest(3).Test, tinyRequest(3).Options)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := m.Submit(tinyRequest(3))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		rep, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.ComFedSV, want.ComFedSV) {
			t.Fatal("concurrent jobs with equal seeds diverged")
		}
	}
}

// oneShard scripts every submission as a one-shard fakeValuation —
// Prepare, one observation shard running observe, Complete, Extract.
func oneShard(observe func(ctx context.Context) error) func(Request, comfedsv.Options) stagedValuation {
	return func(Request, comfedsv.Options) stagedValuation {
		return &fakeValuation{name: "job", shards: 1, log: &taskLog{}, observe: observe}
	}
}

// blockingValuation parks each job's one observation shard until
// released, making queue pressure and cancellation deterministic.
func blockingValuation(release <-chan struct{}) func(Request, comfedsv.Options) stagedValuation {
	return func(Request, comfedsv.Options) stagedValuation {
		return &fakeValuation{name: "job", shards: 1, log: &taskLog{}, observeGate: map[int]<-chan struct{}{0: release}}
	}
}

func TestManagerQueueFull(t *testing.T) {
	release := make(chan struct{})
	m := newManager(t, Config{Workers: 1, QueueDepth: 1, buildValuation: blockingValuation(release)})
	first, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker owns the first job, so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.Status(first); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(tinyRequest(2)); err != nil {
		t.Fatal("second submission should occupy the queue slot, got", err)
	}
	if _, err := m.Submit(tinyRequest(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	close(release)
}

func TestManagerCancelRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newManager(t, Config{Workers: 1, buildValuation: blockingValuation(release)})
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.Status(id); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Error != ErrCancelled.Error() {
		t.Fatalf("cancelled job: state %s error %q", st.State, st.Error)
	}
	if _, err := m.Report(id); !errors.Is(err, ErrFailed) {
		t.Fatalf("report of cancelled job: %v, want ErrFailed", err)
	}
}

func TestManagerCancelQueued(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newManager(t, Config{Workers: 1, QueueDepth: 4, buildValuation: blockingValuation(release)})
	blocker, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.Status(blocker); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(tinyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st, err := m.Status(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error != ErrCancelled.Error() {
		t.Fatalf("cancelled queued job: state %s error %q", st.State, st.Error)
	}
}

func TestManagerUnknownJob(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	if _, err := m.Status("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status: %v, want ErrNotFound", err)
	}
	if _, err := m.Report("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Report: %v, want ErrNotFound", err)
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel: %v, want ErrNotFound", err)
	}
}

func TestManagerFailedJobSurfacesError(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	req := tinyRequest(1)
	req.Options.NumClasses = 0 // invalid: pipeline rejects it
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("invalid job: state %s error %q, want failed with message", st.State, st.Error)
	}
}

func TestManagerPersistsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := newManager(t, Config{Workers: 1, Store: store})
	req := tinyRequest(9)
	id, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m1, id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	want, err := m1.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A fresh manager over the same store sees the job as done and serves
	// the identical report from disk.
	store2, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newManager(t, Config{Workers: 1, Store: store2})
	st, err := m2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("recovered job state %s, want done", st.State)
	}
	got, err := m2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FedSV, want.FedSV) || !reflect.DeepEqual(got.ComFedSV, want.ComFedSV) {
		t.Fatal("recovered report diverges from original")
	}
}

func TestManagerRecoversPanickingJob(t *testing.T) {
	m := newManager(t, Config{
		Workers: 1,
		buildValuation: oneShard(func(context.Context) error {
			panic("poisoned job")
		}),
	})
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || !strings.HasPrefix(st.Error, "service: job panicked: poisoned job") {
		t.Fatalf("panicking job: state %s error %q", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("panic error lacks a stack trace: %q", st.Error)
	}
	// The worker survived: a healthy job still runs.
	m2 := newManager(t, Config{Workers: 1})
	id2, err := m2.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m2, id2); st.State != StateDone {
		t.Fatalf("follow-up job finished %s (%s)", st.State, st.Error)
	}
}

func TestManagerTooManyClientsFailsJobNotProcess(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	req := tinyRequest(1)
	// 21 clients: round 0 selects everyone (Everyone-Being-Heard), which
	// exact FedSV cannot enumerate — must fail the job, not panic.
	base := req.Clients[0]
	req.Clients = nil
	for i := 0; i < 21; i++ {
		req.Clients = append(req.Clients, base)
	}
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("oversized job: state %s error %q, want failed with message", st.State, st.Error)
	}
}

func TestManagerCancelQueuedFreesSlot(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m := newManager(t, Config{Workers: 1, QueueDepth: 1, buildValuation: blockingValuation(release)})
	blocker, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.Status(blocker); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(tinyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinyRequest(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full, got %v", err)
	}
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinyRequest(3)); err != nil {
		t.Fatalf("cancelling the queued job must free its slot, got %v", err)
	}
}

func TestManagerShutdownAbortsBacklogOnDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	m, err := NewManager(Config{Workers: 1, QueueDepth: 8, buildValuation: blockingValuation(release)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := m.Submit(tinyRequest(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = m.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v; backlog was not aborted", elapsed)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s still %s after aborted shutdown", id, st.State)
		}
	}
}

func TestManagerKeepsReportWhenPersistFails(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Workers: 1, Store: store})
	// Break the store after the manager scanned it: report computation
	// must still succeed and stay resident, with the persist error as a
	// warning.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(tinyRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done despite persist failure", st.State, st.Error)
	}
	if st.Error == "" {
		t.Fatal("done job should carry the persistence warning")
	}
	if _, err := m.Report(id); err != nil {
		t.Fatalf("report must stay resident, got %v", err)
	}
}

func TestManagerShutdownDrainsQueuedJobs(t *testing.T) {
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Submit(tinyRequest(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state %s after drain, want done", id, st.State)
		}
	}
	if _, err := m.Submit(tinyRequest(1)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after shutdown: %v, want ErrShutdown", err)
	}
}

// TestDefaultParallelismFairShare pins the fair-share rule: jobs that leave
// Options.Parallelism at 0 get GOMAXPROCS/Workers (at least 1), and an
// explicit per-job setting wins over the manager default.
func TestDefaultParallelismFairShare(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	capture := func(_ Request, opts comfedsv.Options) stagedValuation {
		mu.Lock()
		seen = append(seen, opts.Parallelism)
		mu.Unlock()
		return &fakeValuation{name: "capture", shards: 1, log: &taskLog{}}
	}

	m := newManager(t, Config{Workers: 1, buildValuation: capture})
	wantShare := runtime.GOMAXPROCS(0) / 1
	if m.DefaultParallelism() != wantShare {
		t.Fatalf("DefaultParallelism = %d, want %d", m.DefaultParallelism(), wantShare)
	}
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, id)

	req := tinyRequest(2)
	req.Options.Parallelism = 7
	id, err = m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, id)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != wantShare || seen[1] != 7 {
		t.Fatalf("pipeline saw parallelism %v, want [%d 7]", seen, wantShare)
	}
}
