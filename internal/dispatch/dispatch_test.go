package dispatch

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/utility"
)

// transient mirrors the structural retry classifier shared with
// internal/service: any error in the chain exposing Transient() true.
func transient(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if m, ok := e.(interface{ Transient() bool }); ok {
			return m.Transient()
		}
	}
	return false
}

// mkObs fabricates a digest-valid wire payload.
func mkObs(cells ...utility.SnapshotCell) *utility.CellBatch {
	obs := &utility.CellBatch{N: 4, Cells: cells}
	obs.Stamp()
	return obs
}

// testCells are the coordinates every test lease carries.
var testCells = []utility.SnapshotCell{{Round: 0, Mask: 2}, {Round: 1, Mask: 1}}

// mkPaid fabricates a worker's answer to a test lease: its cells with the
// given values.
func mkPaid(vals ...float64) *utility.CellBatch {
	cells := make([]utility.SnapshotCell, len(testCells))
	for i, c := range testCells {
		c.Value = vals[i]
		cells[i] = c
	}
	return mkObs(cells...)
}

func testTask() Task {
	return Task{JobID: "job-1", RunID: "run-1", Shard: 0, Cells: mkObs(testCells...)}
}

// execute runs Execute on a goroutine and returns the outcome channel.
func execute(c *Coordinator, task Task) chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		cells, err := c.Execute(context.Background(), task)
		ch <- outcome{cells: cells, err: err}
	}()
	return ch
}

func waitOutcome(t *testing.T, ch chan outcome) outcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not resolve")
		return outcome{}
	}
}

func TestLeaseLifecycle(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !c.HasLiveWorkers() {
		t.Fatal("registered worker not live")
	}

	done := execute(c, testTask())
	lease, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if !reflect.DeepEqual(lease.Task, testTask()) {
		t.Fatalf("leased task = %+v, want %+v", lease.Task, testTask())
	}

	obs := mkPaid(0.5, -0.5)
	if err := c.Complete(lease.ID, obs); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	out := waitOutcome(t, done)
	if out.err != nil {
		t.Fatalf("Execute: %v", out.err)
	}
	if out.cells.Digest != obs.Digest {
		t.Fatalf("Execute returned digest %s, want %s", out.cells.Digest, obs.Digest)
	}

	st := c.Stats()
	if st.LeasesGranted != 1 || st.LeasesCompleted != 1 || st.LeasesActive != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecuteFailsFastWithoutWorkers(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	_, err := c.Execute(context.Background(), testTask())
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Execute without workers: %v, want ErrNoWorkers", err)
	}
	if !transient(err) {
		t.Fatal("ErrNoWorkers must be transient so the retry ladder falls back to local execution")
	}
}

func TestLeaseExpiryDeliversTransientLostLease(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	c := NewCoordinator(Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour, Clock: clock})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := execute(c, testTask())
	lease, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}

	// Two timers park on the clock — Execute's fleet re-check and the
	// lease watchdog; wait for both before advancing so the expiry fires.
	waitWaiters(t, clock, 2)
	clock.Advance(time.Minute + time.Second)

	out := waitOutcome(t, done)
	var lost *LostLeaseError
	if !errors.As(out.err, &lost) {
		t.Fatalf("Execute after expiry: %v, want LostLeaseError", out.err)
	}
	if !transient(out.err) {
		t.Fatal("a lost lease must be transient so the shard is re-leased")
	}

	// The straggler's late completion is rejected, not merged.
	if err := c.Complete(lease.ID, mkObs()); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("Complete on expired lease: %v, want ErrUnknownLease", err)
	}
	if st := c.Stats(); st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", st.LeasesExpired)
	}
}

func TestQueuedTaskWithdrawnWhenFleetDies(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	c := NewCoordinator(Config{WorkerTTL: 30 * time.Second, Clock: clock})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// The task enqueues while w1 is live, but w1 never polls and expires
	// with the task still queued. The periodic fleet re-check must fail
	// the Execute with transient ErrNoWorkers instead of hanging forever
	// — the retry ladder then falls back to local execution.
	done := execute(c, testTask())
	waitWaiters(t, clock, 1)
	clock.Advance(31 * time.Second)
	out := waitOutcome(t, done)
	if !errors.Is(out.err, ErrNoWorkers) || !transient(out.err) {
		t.Fatalf("stranded Execute: %v, want transient ErrNoWorkers", out.err)
	}
	if st := c.Stats(); st.TasksQueued != 0 {
		t.Fatalf("TasksQueued = %d after withdrawal, want 0", st.TasksQueued)
	}
}

func TestDeregisterRevokesWorkerLeases(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := execute(c, testTask())
	if _, err := c.Lease(context.Background(), "w1"); err != nil {
		t.Fatalf("Lease: %v", err)
	}
	c.Deregister("w1")
	out := waitOutcome(t, done)
	var lost *LostLeaseError
	if !errors.As(out.err, &lost) || !transient(out.err) {
		t.Fatalf("Execute after deregister: %v, want transient LostLeaseError", out.err)
	}
	if c.HasLiveWorkers() {
		t.Fatal("deregistered worker still live")
	}
}

func TestWorkerLivenessExpiry(t *testing.T) {
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	c := NewCoordinator(Config{WorkerTTL: 30 * time.Second, Clock: clock})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	clock.Advance(29 * time.Second)
	if !c.HasLiveWorkers() {
		t.Fatal("worker expired before its liveness window")
	}
	clock.Advance(2 * time.Second)
	if c.HasLiveWorkers() {
		t.Fatal("silent worker still live past WorkerTTL")
	}
	// A heartbeat resurrects it (idempotent re-register).
	if err := c.Heartbeat("w1"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if !c.HasLiveWorkers() {
		t.Fatal("heartbeat did not re-register the worker")
	}
}

func TestReLeaseAfterWorkerFailureKeepsDigestPinned(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// First execution fails worker-side; the retry ladder (the test here)
	// re-executes the same task.
	done := execute(c, testTask())
	lease1, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if err := c.Fail(lease1.ID, "boom"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	out := waitOutcome(t, done)
	var werr *WorkerError
	if !errors.As(out.err, &werr) || !transient(out.err) {
		t.Fatalf("Execute after worker failure: %v, want transient WorkerError", out.err)
	}

	// Second execution completes; its digest is pinned.
	obs := mkPaid(0.5, -0.25)
	done = execute(c, testTask())
	lease2, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if err := c.Complete(lease2.ID, obs); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if out := waitOutcome(t, done); out.err != nil {
		t.Fatalf("Execute: %v", out.err)
	}

	// A third execution of the same task must re-derive the same digest.
	done = execute(c, testTask())
	lease3, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	bad := mkPaid(0.5, 0.75)
	err = c.Complete(lease3.ID, bad)
	var mismatch *DigestMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("Complete with diverging digest: %v, want DigestMismatchError", err)
	}
	out = waitOutcome(t, done)
	if !errors.As(out.err, &mismatch) {
		t.Fatalf("Execute after mismatch: %v, want DigestMismatchError", out.err)
	}
	if transient(out.err) {
		t.Fatal("a determinism violation must NOT be transient — retrying cannot make both answers right")
	}
	if st := c.Stats(); st.DigestMismatches != 1 {
		t.Fatalf("DigestMismatches = %d, want 1", st.DigestMismatches)
	}
}

func TestCompleteRejectsCorruptPayload(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	done := execute(c, testTask())
	lease, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	obs := mkPaid(1, 1)
	obs.Cells[0].Value = 99 // corrupt after stamping
	if err := c.Complete(lease.ID, obs); err == nil {
		t.Fatal("Complete accepted a payload whose digest does not verify")
	}
	if st := c.Stats(); st.DigestMismatches != 1 {
		t.Fatalf("DigestMismatches = %d, want 1", st.DigestMismatches)
	}
	// The lease stays active — the worker may still Fail it properly.
	if err := c.Fail(lease.ID, "gave up"); err != nil {
		t.Fatalf("Fail after rejected payload: %v", err)
	}
	if out := waitOutcome(t, done); !transient(out.err) {
		t.Fatalf("Execute: %v, want transient worker failure", out.err)
	}
}

// TestCompleteRejectsWrongCells pins the coverage check: a verified batch
// that drops one of the leased cells, adds one, or moves one is refused,
// counted as a mismatch, and fails the call and the waiting Execute with a
// transient WorkerError, so the retry ladder re-leases the shard or runs
// it locally instead of paying the missing cell itself.
func TestCompleteRejectsWrongCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch *utility.CellBatch
	}{
		{"dropped", mkObs(utility.SnapshotCell{Round: 0, Mask: 2, Value: 0.5})},
		{"added", mkObs(append(mkPaid(0.5, -0.5).Cells, utility.SnapshotCell{Round: 1, Mask: 3, Value: 1})...)},
		{"moved", mkObs(utility.SnapshotCell{Round: 0, Mask: 2, Value: 0.5}, utility.SnapshotCell{Round: 1, Mask: 2, Value: -0.5})},
	} {
		c := NewCoordinator(Config{})
		if err := c.Register("w1"); err != nil {
			t.Fatalf("Register: %v", err)
		}
		done := execute(c, testTask())
		lease, err := c.Lease(context.Background(), "w1")
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		var werr *WorkerError
		if err := c.Complete(lease.ID, tc.batch); !errors.As(err, &werr) {
			t.Fatalf("%s: Complete = %v, want WorkerError", tc.name, err)
		}
		out := waitOutcome(t, done)
		if !errors.As(out.err, &werr) || !transient(out.err) {
			t.Fatalf("%s: Execute = %v, want transient WorkerError", tc.name, out.err)
		}
		if st := c.Stats(); st.DigestMismatches != 1 || st.LeasesCompleted != 0 || st.LeasesActive != 0 {
			t.Fatalf("%s: stats = %+v, want one mismatch, no completion, no active lease", tc.name, st)
		}
		// The shard re-leases and an honest answer completes it.
		done = execute(c, testTask())
		if lease, err = c.Lease(context.Background(), "w1"); err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if err := c.Complete(lease.ID, mkPaid(0.5, -0.5)); err != nil {
			t.Fatalf("%s: honest Complete after a rejection: %v", tc.name, err)
		}
		if out := waitOutcome(t, done); out.err != nil {
			t.Fatalf("%s: Execute: %v", tc.name, out.err)
		}
		c.Close()
	}
}

func TestLeaseLongPollWindowElapses(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	lease, err := c.Lease(ctx, "w1")
	if err != nil || lease != nil {
		t.Fatalf("empty long-poll = (%v, %v), want (nil, nil)", lease, err)
	}
	// Polling counted as a heartbeat.
	if !c.HasLiveWorkers() {
		t.Fatal("polling worker not registered as live")
	}
}

func TestCloseFailsQueuedAndLeased(t *testing.T) {
	c := NewCoordinator(Config{})
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	leased := execute(c, testTask())
	lease, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	queued := execute(c, Task{JobID: "job-2", RunID: "run-1", Shard: 1, Cells: mkObs(testCells...)})
	// Make sure the second Execute reached the queue before closing.
	waitQueued(t, c, 1)

	c.Close()
	if out := waitOutcome(t, leased); !errors.Is(out.err, ErrClosed) {
		t.Fatalf("leased Execute after Close: %v, want ErrClosed", out.err)
	}
	if out := waitOutcome(t, queued); !errors.Is(out.err, ErrClosed) {
		t.Fatalf("queued Execute after Close: %v, want ErrClosed", out.err)
	}
	if err := c.Complete(lease.ID, mkObs()); err == nil {
		t.Fatal("Complete after Close succeeded")
	}
	if _, err := c.Lease(context.Background(), "w1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lease after Close: %v, want ErrClosed", err)
	}
}

func TestAbandonedExecuteRevokesLease(t *testing.T) {
	c := NewCoordinator(Config{})
	defer c.Close()
	if err := c.Register("w1"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Execute(ctx, testTask())
		done <- err
	}()
	lease, err := c.Lease(context.Background(), "w1")
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Execute: %v", err)
	}
	// The revocation lands asynchronously with the cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Complete(lease.ID, mkObs()); errors.Is(err, ErrUnknownLease) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lease of an abandoned Execute was never revoked")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitWaiters blocks until the manual clock has n parked timers.
func waitWaiters(t *testing.T, clock *faultinject.ManualClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clock.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("clock never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued blocks until the coordinator has n queued tasks.
func waitQueued(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().TasksQueued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d tasks", n)
		}
		time.Sleep(time.Millisecond)
	}
}
