// Package dispatch promotes the comfedsvd stage-graph scheduler into a
// shard coordinator: observation-shard tasks are leased to remote worker
// processes over a lean HTTP work-pull protocol instead of (or alongside)
// running on the local pool.
//
// The division of labor keeps determinism the pinned invariant:
//
//   - The Coordinator owns a lease table with deadlines and a worker
//     registry with heartbeats and liveness expiry. It never plans work:
//     a task carries the shard's cells as the job listed them — a
//     contiguous chunk of its wave's cell list — so a worker pays
//     exactly the cells the coordinator's shard observes, whatever the
//     job's budget, seed or pipeline.
//   - Workers long-poll for leases, hydrate the training trace from the
//     shared persist.RunStore via the content-addressed run ID, pay the
//     leased cells locally, and report them as one utility.CellBatch keyed
//     by (round, coalition). The coordinator verifies the batch's order
//     and digest, rejects a batch whose cells are not exactly the lease's,
//     and compares duplicate completions of re-leased tasks — a mismatch
//     is a loud determinism failure, never a silently different report. It
//     cannot check the values against the training trace; the waiting
//     Execute's caller preloads the batch into the job's evaluator (which
//     bounds-checks every cell) and then observes the shard from cache.
//   - A lease lost to a dead or expired worker, or answered with the wrong
//     cells, fails the waiting Execute with a transient error, which rides
//     the scheduler's existing deterministic retry ladder back to a fresh
//     lease (or to local execution when no live workers remain).
//
// The package is dependency-free beyond the standard library, the
// internal/utility wire type and internal/telemetry, so service and api
// can both import it without cycles.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/telemetry"
	"comfedsv/internal/utility"
)

// Task is one observation-shard lease payload: the shard's cells, and
// the run a worker pays them against.
type Task struct {
	// JobID is the owning job (diagnostic; not needed to compute).
	JobID string `json:"job_id"`
	// RunID is the content-addressed training run in the shared RunStore.
	RunID string `json:"run_id"`
	// Shard is the job's shard index (diagnostic; the cells are
	// authoritative).
	Shard int `json:"shard"`
	// Cells lists the shard's cells in canonical order, values zero. A
	// completion must carry exactly these coordinates.
	Cells *utility.CellBatch `json:"cells"`
}

// key addresses a task for duplicate-completion digest comparison: two
// executions of the same cells of the same shard must derive identical
// values.
func (t Task) key() string {
	return fmt.Sprintf("%s/%d:%s", t.JobID, t.Shard, t.Cells.Digest)
}

// Lease is one granted task lease. The worker must Complete or Fail it
// before Deadline; after that the coordinator revokes it and the shard
// is re-leased (or run locally) by the retry ladder.
type Lease struct {
	ID       string    `json:"id"`
	Task     Task      `json:"task"`
	Deadline time.Time `json:"deadline"`
}

// LostLeaseError reports a lease revoked before its result arrived —
// expired deadline, dead worker, or explicit deregistration. It is
// transient: the scheduler's retry ladder re-leases the shard
// deterministically.
type LostLeaseError struct {
	LeaseID string
	Reason  string
}

func (e *LostLeaseError) Error() string {
	return fmt.Sprintf("dispatch: lease %s lost: %s", e.LeaseID, e.Reason)
}

// Transient marks a lost lease as retryable to the scheduler's
// structural classifier.
func (e *LostLeaseError) Transient() bool { return true }

// WorkerError reports a failure the worker itself hit evaluating a lease
// (trace hydration, evaluation error), or a completion whose cells are not
// exactly the lease's. It is transient — a re-lease may land on a healthy
// worker, and the retry ladder's cap bounds the loop.
type WorkerError struct {
	LeaseID string
	Msg     string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dispatch: worker failed lease %s: %s", e.LeaseID, e.Msg)
}

func (e *WorkerError) Transient() bool { return true }

// DigestMismatchError reports two executions of one task deriving
// different cell-batch digests — a determinism violation. It is NOT
// transient: retrying cannot make both answers right, so it fails loudly.
type DigestMismatchError struct {
	Key       string
	Got, Want string
}

func (e *DigestMismatchError) Error() string {
	return fmt.Sprintf("dispatch: task %s re-derived digest %s but an earlier execution recorded %s: determinism violation", e.Key, e.Got, e.Want)
}

// ErrNoWorkers fails an Execute fast when no live worker is registered.
// It is transient so the retry ladder re-evaluates remote eligibility —
// the scheduler falls back to local execution on the next attempt.
var ErrNoWorkers = &noWorkersError{}

type noWorkersError struct{}

func (*noWorkersError) Error() string   { return "dispatch: no live workers registered" }
func (*noWorkersError) Transient() bool { return true }

// ErrUnknownLease rejects a Complete/Fail/heartbeat for a lease the
// coordinator is not (or no longer) tracking as active.
var ErrUnknownLease = errors.New("dispatch: unknown or revoked lease")

// ErrClosed rejects calls after Close.
var ErrClosed = errors.New("dispatch: coordinator closed")

// Config parameterizes a Coordinator.
type Config struct {
	// LeaseTTL bounds how long a granted lease may stay un-completed
	// before the shard is revoked and re-leased. Zero means 2 minutes.
	LeaseTTL time.Duration
	// WorkerTTL bounds how long a silent worker (no heartbeat, poll, or
	// report) stays live. Zero means 30 seconds.
	WorkerTTL time.Duration
	// Clock injects time; nil means the real clock.
	Clock faultinject.Clock
	// Logger receives lease lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of coordinator counters, exported
// through /v1/metrics by RegisterMetrics.
type Stats struct {
	// WorkersLive is the number of registered workers within liveness.
	WorkersLive int
	// TasksQueued is the number of tasks awaiting a lease.
	TasksQueued int
	// LeasesActive is the number of granted, unresolved leases.
	LeasesActive int
	// LeasesGranted counts all leases ever granted.
	LeasesGranted uint64
	// LeasesCompleted counts leases resolved by a verified result.
	LeasesCompleted uint64
	// LeasesFailed counts leases the worker reported as failed.
	LeasesFailed uint64
	// LeasesExpired counts leases revoked by deadline or worker loss.
	LeasesExpired uint64
	// DigestMismatches counts results rejected at the wire: duplicate
	// completions disagreeing, a result whose stamped digest does not
	// match its cells, or a result whose cells are not the lease's.
	DigestMismatches uint64
}

// outcome resolves one Execute.
type outcome struct {
	cells *utility.CellBatch
	err   error
}

// pending is one task awaiting or holding a lease.
type pending struct {
	task    Task
	done    chan outcome // buffered 1; delivered exactly once
	leaseID string       // "" while queued
}

// activeLease is one granted, unresolved lease.
type activeLease struct {
	lease   Lease
	entry   *pending
	worker  string
	expired chan struct{} // closed on resolve to stop the watchdog
}

// workerState tracks one registered worker's liveness.
type workerState struct {
	lastSeen time.Time
}

// Coordinator owns the lease table and worker registry. All methods are
// safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	queue   []*pending
	waiters []chan struct{} // parked Lease long-polls
	leases  map[string]*activeLease
	workers map[string]*workerState
	// digests pins the first verified digest of every completed task key
	// for the lifetime of the coordinator, so a straggler completion of a
	// re-leased shard is compared, not trusted.
	digests map[string]string
	closed  bool
	seq     uint64 // lease id counter

	granted    uint64
	completed  uint64
	failed     uint64
	expired    uint64
	mismatches uint64
}

// NewCoordinator returns a coordinator with the given config.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = faultinject.RealClock{}
	}
	return &Coordinator{
		cfg:     cfg,
		leases:  make(map[string]*activeLease),
		workers: make(map[string]*workerState),
		digests: make(map[string]string),
	}
}

// LeaseTTL returns the configured lease deadline window.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

// WorkerTTL returns the configured worker liveness window.
func (c *Coordinator) WorkerTTL() time.Duration { return c.cfg.WorkerTTL }

func (c *Coordinator) logf(msg string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info(msg, args...)
	}
}

// Register adds (or refreshes) a worker in the registry. Registration is
// idempotent; a re-registering worker simply refreshes its liveness.
func (c *Coordinator) Register(id string) error {
	if id == "" {
		return errors.New("dispatch: empty worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if _, ok := c.workers[id]; !ok {
		c.logf("worker registered", "worker", id)
	}
	c.workers[id] = &workerState{lastSeen: c.cfg.Clock.Now()}
	return nil
}

// Heartbeat refreshes a worker's liveness. An unknown worker is
// re-registered — a coordinator restart must not strand live workers.
func (c *Coordinator) Heartbeat(id string) error { return c.Register(id) }

// Deregister removes a worker and revokes its outstanding leases
// immediately (graceful worker shutdown).
func (c *Coordinator) Deregister(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.workers, id)
	for _, al := range c.leases {
		if al.worker == id {
			c.revokeLocked(al, "worker deregistered")
		}
	}
}

// HasLiveWorkers reports whether any registered worker heartbeated
// within the liveness window — the scheduler's remote-eligibility check.
func (c *Coordinator) HasLiveWorkers() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked() > 0
}

func (c *Coordinator) liveWorkersLocked() int {
	now := c.cfg.Clock.Now()
	n := 0
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.WorkerTTL {
			// Liveness expiry is lazy: a silent worker is dropped the next
			// time anyone looks. Its leases keep their own deadlines.
			delete(c.workers, id)
			c.logf("worker expired", "worker", id)
			continue
		}
		n++
	}
	return n
}

// Execute queues one shard task for remote execution and blocks until a
// worker returns a digest-verified cell batch, the lease chain fails, or
// ctx is done. Lost leases, worker-side failures and completions with the
// wrong cells return transient errors (the scheduler's retry ladder
// re-executes, re-evaluating remote eligibility); a digest mismatch
// returns a permanent determinism error.
// The batch's cells are not yet checked against the job's trace — the
// caller's preload does that.
func (c *Coordinator) Execute(ctx context.Context, task Task) (*utility.CellBatch, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.liveWorkersLocked() == 0 {
		c.mu.Unlock()
		return nil, ErrNoWorkers
	}
	entry := &pending{task: task, done: make(chan outcome, 1)}
	c.queue = append(c.queue, entry)
	c.wakeLocked()
	c.mu.Unlock()

	for {
		select {
		case out := <-entry.done:
			return out.cells, out.err
		case <-ctx.Done():
			c.abandon(entry)
			return nil, ctx.Err()
		case <-c.cfg.Clock.After(c.cfg.WorkerTTL):
			// Re-check the fleet while queued: a task enqueued just before
			// the last worker died would otherwise wait forever — nobody
			// polls an empty registry. Leased entries keep their own
			// deadline watchdog.
			if c.withdrawIfStranded(entry) {
				return nil, ErrNoWorkers
			}
		}
	}
}

// withdrawIfStranded removes entry from the queue iff it is still queued
// and no live worker remains to ever lease it, reporting whether it did.
func (c *Coordinator) withdrawIfStranded(entry *pending) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.liveWorkersLocked() > 0 {
		return false
	}
	for i, e := range c.queue {
		if e == entry {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// abandon withdraws an Execute whose context ended: a queued entry is
// removed; a leased one has its lease revoked (the revocation outcome is
// discarded — nobody is waiting).
func (c *Coordinator) abandon(entry *pending) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.queue {
		if e == entry {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
	if al, ok := c.leases[entry.leaseID]; ok && al.entry == entry {
		c.revokeLocked(al, "execute abandoned")
	}
}

// wakeLocked releases every parked Lease long-poll to re-check the queue.
func (c *Coordinator) wakeLocked() {
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
}

// Lease grants the next queued task to the polling worker, blocking
// until one is available or ctx is done (the long-poll window). A nil
// lease with a nil error means the window elapsed with no work. Polling
// counts as a heartbeat.
func (c *Coordinator) Lease(ctx context.Context, workerID string) (*Lease, error) {
	if workerID == "" {
		return nil, errors.New("dispatch: empty worker id")
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		c.workers[workerID] = &workerState{lastSeen: c.cfg.Clock.Now()}
		if len(c.queue) > 0 {
			entry := c.queue[0]
			c.queue = c.queue[1:]
			lease := c.grantLocked(entry, workerID)
			c.mu.Unlock()
			return lease, nil
		}
		ch := make(chan struct{})
		c.waiters = append(c.waiters, ch)
		c.mu.Unlock()

		select {
		case <-ch:
		case <-ctx.Done():
			c.dropWaiter(ch)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, nil
			}
			return nil, ctx.Err()
		}
	}
}

func (c *Coordinator) dropWaiter(ch chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.waiters {
		if w == ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// grantLocked assigns entry to workerID under a fresh lease and starts
// its deadline watchdog.
func (c *Coordinator) grantLocked(entry *pending, workerID string) *Lease {
	c.seq++
	id := fmt.Sprintf("lease-%d", c.seq)
	al := &activeLease{
		lease: Lease{
			ID:       id,
			Task:     entry.task,
			Deadline: c.cfg.Clock.Now().Add(c.cfg.LeaseTTL),
		},
		entry:   entry,
		worker:  workerID,
		expired: make(chan struct{}),
	}
	entry.leaseID = id
	c.leases[id] = al
	c.granted++
	c.logf("lease granted", "lease", id, "worker", workerID, "job", entry.task.JobID, "shard", entry.task.Shard, "cells", len(entry.task.Cells.Cells))
	ttl := c.cfg.LeaseTTL
	go func() {
		select {
		case <-c.cfg.Clock.After(ttl):
			c.expire(id)
		case <-al.expired:
		}
	}()
	return &al.lease
}

// expire revokes a lease whose deadline passed before a result arrived.
func (c *Coordinator) expire(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if al, ok := c.leases[id]; ok {
		c.revokeLocked(al, "deadline expired")
	}
}

// revokeLocked resolves a lease as lost: the waiting Execute receives a
// transient LostLeaseError and the retry ladder re-leases the shard.
func (c *Coordinator) revokeLocked(al *activeLease, reason string) {
	delete(c.leases, al.lease.ID)
	close(al.expired)
	c.expired++
	c.logf("lease revoked", "lease", al.lease.ID, "worker", al.worker, "reason", reason)
	al.entry.done <- outcome{err: &LostLeaseError{LeaseID: al.lease.ID, Reason: reason}}
}

// resolveLocked removes an active lease without delivering an outcome,
// returning its entry.
func (c *Coordinator) resolveLocked(id string) (*activeLease, bool) {
	al, ok := c.leases[id]
	if !ok {
		return nil, false
	}
	delete(c.leases, id)
	close(al.expired)
	return al, true
}

// Complete resolves a lease with a worker's cell batch. The batch is
// verified (canonical order, stamped digest recomputed from the cells),
// its (round, coalition) list must be exactly the lease's — otherwise the
// call and the waiting Execute both fail with a transient WorkerError —
// and its digest is compared against any earlier verified
// execution of the same task: a disagreement is a loud determinism failure
// charged to this call, and the waiting Execute also fails permanently. A
// completion for an unknown or already-revoked lease returns
// ErrUnknownLease after the self-verification, so a straggler worker still
// gets its answer checked.
func (c *Coordinator) Complete(leaseID string, cells *utility.CellBatch) error {
	if cells == nil {
		return errors.New("dispatch: nil cell batch")
	}
	if err := cells.Verify(); err != nil {
		c.mu.Lock()
		c.mismatches++
		c.mu.Unlock()
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// A revoked lease's task may since have completed via a re-lease, but
	// its entry is gone: stragglers are only comparable while active.
	al, active := c.resolveLocked(leaseID)
	if !active {
		return ErrUnknownLease
	}
	if msg := coverage(al.entry.task.Cells, cells); msg != "" {
		c.mismatches++
		err := &WorkerError{LeaseID: leaseID, Msg: "completed with the wrong cells: " + msg}
		c.logf("lease rejected", "lease", leaseID, "worker", al.worker, "error", err)
		al.entry.done <- outcome{err: err}
		return err
	}
	key := al.entry.task.key()
	if want, ok := c.digests[key]; ok && want != cells.Digest {
		c.mismatches++
		err := &DigestMismatchError{Key: key, Got: cells.Digest, Want: want}
		al.entry.done <- outcome{err: err}
		return err
	}
	c.digests[key] = cells.Digest
	c.completed++
	c.logf("lease completed", "lease", leaseID, "worker", al.worker, "digest", cells.Digest)
	al.entry.done <- outcome{cells: cells}
	return nil
}

// coverage describes how got's (round, coalition) list differs from the
// leased one, or returns "" when they are the same. Both are verified
// canonical batches, so the lists compare cell by cell.
func coverage(leased, got *utility.CellBatch) string {
	if len(got.Cells) != len(leased.Cells) {
		return fmt.Sprintf("%d cells, lease has %d", len(got.Cells), len(leased.Cells))
	}
	for i := range got.Cells {
		g, l := &got.Cells[i], &leased.Cells[i]
		if g.Round != l.Round || g.Mask != l.Mask || g.Key != l.Key {
			return fmt.Sprintf("cell %d is (round %d, mask %#x, key %q), lease has (round %d, mask %#x, key %q)", i, g.Round, g.Mask, g.Key, l.Round, l.Mask, l.Key)
		}
	}
	return ""
}

// Fail resolves a lease with a worker-reported error; the waiting
// Execute receives a transient WorkerError and the retry ladder decides
// whether to re-lease.
func (c *Coordinator) Fail(leaseID, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	al, ok := c.resolveLocked(leaseID)
	if !ok {
		return ErrUnknownLease
	}
	c.failed++
	c.logf("lease failed", "lease", leaseID, "worker", al.worker, "error", msg)
	al.entry.done <- outcome{err: &WorkerError{LeaseID: leaseID, Msg: msg}}
	return nil
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		WorkersLive:      c.liveWorkersLocked(),
		TasksQueued:      len(c.queue),
		LeasesActive:     len(c.leases),
		LeasesGranted:    c.granted,
		LeasesCompleted:  c.completed,
		LeasesFailed:     c.failed,
		LeasesExpired:    c.expired,
		DigestMismatches: c.mismatches,
	}
}

// RegisterMetrics registers the coordinator's comfedsvd_dispatch_*
// families on r; each renders from a Stats snapshot at scrape time.
func (c *Coordinator) RegisterMetrics(r *telemetry.Registry) {
	stat := func(name, help, typ string, value func(Stats) int64) {
		r.Func(name, help, typ, "", func(emit func(string, int64)) { emit("", value(c.Stats())) })
	}
	stat("comfedsvd_dispatch_workers_live", "Registered remote workers within the liveness window.", "gauge", func(s Stats) int64 { return int64(s.WorkersLive) })
	stat("comfedsvd_dispatch_tasks_queued", "Shard tasks awaiting a lease.", "gauge", func(s Stats) int64 { return int64(s.TasksQueued) })
	stat("comfedsvd_dispatch_leases_active", "Granted, unresolved shard leases.", "gauge", func(s Stats) int64 { return int64(s.LeasesActive) })
	stat("comfedsvd_dispatch_leases_granted_total", "Shard leases granted to workers.", "counter", func(s Stats) int64 { return int64(s.LeasesGranted) })
	stat("comfedsvd_dispatch_leases_completed_total", "Leases resolved by a digest-verified result.", "counter", func(s Stats) int64 { return int64(s.LeasesCompleted) })
	stat("comfedsvd_dispatch_leases_failed_total", "Leases the worker reported as failed.", "counter", func(s Stats) int64 { return int64(s.LeasesFailed) })
	stat("comfedsvd_dispatch_leases_expired_total", "Leases revoked by deadline expiry or worker loss.", "counter", func(s Stats) int64 { return int64(s.LeasesExpired) })
	stat("comfedsvd_dispatch_digest_mismatches_total", "Determinism violations detected at the wire (unverifiable or disagreeing cell-batch digests).", "counter", func(s Stats) int64 { return int64(s.DigestMismatches) })
}

// Close shuts the coordinator down: queued and leased tasks fail with
// ErrClosed, parked long-polls return ErrClosed, and every subsequent
// call is rejected.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, e := range c.queue {
		e.done <- outcome{err: ErrClosed}
	}
	c.queue = nil
	for _, al := range c.leases {
		delete(c.leases, al.lease.ID)
		close(al.expired)
		al.entry.done <- outcome{err: ErrClosed}
	}
	c.wakeLocked()
}
