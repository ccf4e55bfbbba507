package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Deadline errors. A task timeout is transient — the retry ladder gets
// another shot at it; a job deadline is fatal — the job's total time is
// up regardless of which task was unlucky.
var (
	ErrTaskTimeout = errors.New("service: task deadline exceeded")
	ErrJobDeadline = errors.New("service: job deadline exceeded")
)

// transientErr marks an error chain as retryable.
type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports it retryable.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient classifies a task failure: retryable if any error in the
// chain exposes Transient() true (the structural contract shared with
// internal/faultinject), never retryable for context cancellation —
// a cancelled job must fail, not loop. The default for an unmarked
// error is fatal: retrying work whose failure mode is unknown risks
// repeating a side effect, and the pipeline marks its genuinely
// transient failures explicitly.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for e := err; e != nil; e = errors.Unwrap(e) {
		if m, ok := e.(interface{ Transient() bool }); ok {
			return m.Transient()
		}
	}
	return false
}

// retryDelay computes the backoff before a task's next attempt:
// exponential in the attempt number from Config.RetryBaseDelay, plus a
// deterministic jitter seeded from the task's identity (job ID, stage,
// shard, attempt). Seeded jitter keeps the herd-avoidance property of
// randomized backoff while the chaos suites — and any two runs of the
// same schedule — see identical delays.
func (m *Manager) retryDelay(j *job, stage string, shard, attempt int) time.Duration {
	base := m.cfg.RetryBaseDelay
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	d := base << uint(shift)
	const maxDelay = 30 * time.Second
	if d > maxDelay {
		d = maxDelay
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d", j.id, stage, shard, attempt)
	jitter := time.Duration(h.Sum64() % uint64(base))
	return d + jitter
}

// SubmitRetryAfter estimates how long a rejected submitter should wait
// before retrying, derived from queue pressure and the retry ladder's
// base backoff instead of a hardcoded constant: the fuller the queue
// (and the more retries are sleeping out backoffs), the longer the
// suggested wait, clamped to [1s, 30s]. The API layer adds per-request
// jitter on top so a saturated deployment's rejected clients don't all
// come back in the same second.
func (m *Manager) SubmitRetryAfter() time.Duration {
	m.mu.Lock()
	pressure := m.queued + m.pendingRetries
	m.mu.Unlock()
	d := m.cfg.RetryBaseDelay * time.Duration(pressure)
	const minDelay, maxDelay = time.Second, 30 * time.Second
	if d < minDelay {
		return minDelay
	}
	if d > maxDelay {
		return maxDelay
	}
	return d
}

// retryAfter re-enqueues a transiently failed task after its backoff.
// It runs on its own goroutine (tracked by the worker WaitGroup so
// Shutdown waits for scheduled retries); the job's pendingRetries count
// keeps the pool from declaring the job — or itself — finished while a
// retry is in flight. Cancellation short-circuits the sleep.
func (m *Manager) retryAfter(t *task, delay time.Duration) {
	defer m.wg.Done()
	j := t.j
	select {
	case <-m.clock.After(delay):
	case <-j.ctx.Done():
	}

	m.mu.Lock()
	j.pendingRetries--
	m.pendingRetries--
	if j.state.Terminal() {
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}
	if j.failed != nil || j.ctx.Err() != nil {
		// The job died while this retry slept; participate in the same
		// finalization protocol as a draining in-flight task.
		if j.failed == nil {
			j.failed = j.ctx.Err()
		}
		seal := false
		if j.inflight == 0 && j.pendingRetries == 0 {
			m.finalizeFailedLocked(j)
			seal = true
		}
		m.cond.Broadcast()
		m.mu.Unlock()
		if seal {
			m.sealJournal(j)
		}
		return
	}
	m.logJob("task retrying", j, "stage", t.stage, "shard", t.shard, "attempt", t.attempt)
	m.enqueueLocked(j, t)
	m.mu.Unlock()
}

// jobWatchdog fails a job that outlives Config.JobTimeout. Started at
// the job's queued→running transition; exits as soon as the job's
// context dies (every terminal transition cancels it).
func (m *Manager) jobWatchdog(j *job) {
	defer m.wg.Done()
	select {
	case <-j.ctx.Done():
		return
	case <-m.clock.After(m.cfg.JobTimeout):
	}

	m.mu.Lock()
	seal := false
	if !j.state.Terminal() {
		if j.failed == nil {
			j.failed = fmt.Errorf("%w: ran longer than %v", ErrJobDeadline, m.cfg.JobTimeout)
		}
		j.cancel()
		m.drainLocked(j)
		if j.inflight == 0 && j.pendingRetries == 0 {
			m.finalizeFailedLocked(j)
			seal = true
		}
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	if seal {
		m.sealJournal(j)
	}
}

// finalizeFailedLocked retires a job whose last in-flight work has
// drained after a failure was recorded: complete if the extraction
// stage won its race with the failure (a persisted report must not be
// stranded), fail otherwise. Callers hold m.mu and have verified
// inflight and pendingRetries are both zero.
func (m *Manager) finalizeFailedLocked(j *job) {
	if j.report != nil {
		m.completeJobLocked(j)
		return
	}
	ferr := j.failed
	if errors.Is(ferr, context.Canceled) {
		ferr = ErrCancelled
	}
	m.failLocked(j, ferr)
}
