// Package service turns the one-shot comfedsv valuation pipeline into a
// long-running job engine. A Manager decomposes every submitted job into a
// staged task graph — prepare (training or shared-run resolution,
// observation planning), N observation shards that pay every cell the
// job reads, FedSV plus merge+completion, Shapley extraction — and
// schedules the tasks of all jobs on one shared worker
// pool with per-job round-robin fairness, so one large valuation no longer
// monopolizes a worker for its whole lifetime while small jobs starve
// behind it. The Manager tracks per-job state and per-stage progress,
// supports cancellation through context.Context (draining a cancelled
// job's queued shards immediately), and mirrors finished reports into a
// disk-backed persist.JobStore so completed work survives restarts. The
// HTTP layer in internal/api and the comfedsvd daemon are thin shells
// around this package.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
	"comfedsv/internal/telemetry"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Submit puts a job in StateQueued; the scheduler moves it
// to StateRunning when its first task starts; it finishes in StateDone or
// StateFailed (cancellation is a failure with ErrCancelled).
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Request is one valuation job submission. Exactly one of two forms is
// valid: inline training (Clients + Test set, RunID empty) trains a
// private trace for this job alone; run-backed (RunID set, Clients/Test
// empty) values against a shared run registered with CreateRun, reusing
// its trace and evaluator cache. Options carries the valuation settings in
// both forms; in the run-backed form its training fields are ignored.
type Request struct {
	RunID   string
	Clients []comfedsv.Client
	Test    comfedsv.Client
	Options comfedsv.Options
}

// Status is a point-in-time snapshot of a job, safe to retain and
// serialize.
type Status struct {
	ID       string            `json:"id"`
	State    State             `json:"state"`
	Progress comfedsv.Progress `json:"progress"`
	// Error is the failure reason for failed jobs. On a done job it is a
	// non-fatal warning (the report computed but could not be persisted,
	// so it will not survive a restart).
	Error string `json:"error,omitempty"`

	// Retries counts transient task failures this job recovered from via
	// re-execution; LastError is the most recent such failure. A done job
	// with nonzero Retries weathered real faults on the way.
	Retries   int    `json:"retries,omitempty"`
	LastError string `json:"last_error,omitempty"`

	// Shards and ShardsDone describe the observation stage's task
	// decomposition: how many shard tasks the scheduler fans this job's
	// Monte-Carlo observation work out into, and how many have completed.
	// Both are 0 until the prepare stage has planned the job. An adaptive
	// job's Shards grows wave by wave as its Complete schedules more.
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`

	// ObservationsUsed and ObservationsBudget, on a done adaptive
	// (tolerance-driven) job, report the early-stop savings: how many
	// sampled permutations the run merged before its estimates converged,
	// against the fixed budget it was capped at. Both are 0 (omitted) for
	// fixed-budget and exact jobs.
	ObservationsUsed   int `json:"observations_used,omitempty"`
	ObservationsBudget int `json:"observations_budget,omitempty"`

	// RunID is the shared training run this job values against; empty for
	// jobs with inline training.
	RunID string `json:"run_id,omitempty"`
	// CacheStats, on a done run-backed job, splits the job's distinct
	// utility cells into shared-cache hits (amortized by earlier jobs over
	// the same run) and fresh test-loss evaluations.
	CacheStats *comfedsv.EvalStats `json:"cache_stats,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// StageSeconds is the job's cumulative wall-clock execution time by
	// scheduler stage (prepare / observe / complete / shapley), summed
	// across the stage's tasks — observe is the total over all shards, not
	// elapsed time, so with parallel shards it can exceed finished−started.
	// Empty until the first task finishes.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

// Errors returned by Manager methods.
var (
	ErrNotFound  = errors.New("service: no such job")
	ErrNotDone   = errors.New("service: job is not done")
	ErrFailed    = errors.New("service: job failed")
	ErrJobActive = errors.New("service: job is not terminal")
	ErrQueueFull = errors.New("service: job queue is full")
	ErrShutdown  = errors.New("service: manager is shut down")
	ErrCancelled = errors.New("service: job cancelled")
)

// Config sizes and wires a Manager. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, no persistence.
type Config struct {
	// Workers is the number of concurrent task workers; 0 means
	// GOMAXPROCS. A worker runs one stage task at a time — not one whole
	// job — so K jobs × N shards interleave across the pool.
	Workers int
	// QueueDepth bounds the number of jobs waiting to start; 0 means 64.
	// Submissions beyond the bound fail fast with ErrQueueFull. Stage
	// tasks of jobs already started are not counted against it.
	QueueDepth int
	// Store, if non-nil, receives every finished report, and its existing
	// reports are exposed as done jobs at startup.
	Store *persist.JobStore
	// RunStore, if non-nil, persists shared training runs; its existing
	// runs are exposed as ready runs at startup (traces load lazily from
	// disk on first use). Every shared run then also carries a
	// `<runID>.cells` sidecar: newly evaluated utility cells are flushed
	// to it at merge-wave and job-completion boundaries, and a run's
	// evaluator is warm-started from it when the trace is trained or
	// recovered — so a second job over the same run, even in a fresh
	// process or on a remote worker, skips the test-loss evaluations the
	// first job already paid for. Cells are pure functions of the trace,
	// so warmth never changes a byte of any report.
	RunStore *persist.RunStore
	// DefaultParallelism is the Options.Parallelism applied to submissions
	// that leave it 0: the per-task CPU budget for the valuation hot path.
	// 0 means a fair share of the machine across the worker pool —
	// GOMAXPROCS divided by Workers, at least 1 — so a fully busy pool
	// does not oversubscribe the host; a job that wants the whole machine
	// can ask for it explicitly in its options.
	DefaultParallelism int
	// DefaultShards is the Options.Shards applied to submissions that
	// leave it 0: how many observation shard tasks each wave of one job
	// is split into. 0 means 1 (no sharding). Sharding changes
	// scheduling only, never a byte of any report.
	DefaultShards int
	// JobTTL, if positive, evicts terminal jobs — from memory and, when a
	// Store is configured, from disk — once they have been finished for at
	// least this long. 0 keeps jobs forever.
	JobTTL time.Duration
	// Logger, if non-nil, receives structured job and run lifecycle events
	// (submit/start/finish/fail/evict transitions with job and run IDs).
	// Nil disables lifecycle logging. The logger only observes; it never
	// affects scheduling or reports.
	Logger *slog.Logger

	// MaxTaskRetries is how many times a transiently failed stage task
	// (one whose error chain exposes Transient() true, or a task
	// timeout) is re-executed before the failure becomes fatal to its
	// job. 0 disables retries. Re-execution is safe because every stage
	// is a deterministic function of the job's request: a retried shard
	// re-derives exactly the observations the failed attempt would have.
	MaxTaskRetries int
	// RetryBaseDelay is the first retry's backoff; attempt k waits
	// base<<k plus a jitter seeded from the task's identity, so the
	// schedule is deterministic for the chaos suites while retries of
	// unrelated tasks still spread out. 0 means 50ms.
	RetryBaseDelay time.Duration
	// TaskTimeout, if positive, bounds each stage-task execution; an
	// expired task fails transiently and enters the retry ladder.
	TaskTimeout time.Duration
	// JobTimeout, if positive, bounds a job's running time (started→
	// finished); expiry fails the job fatally with ErrJobDeadline.
	JobTimeout time.Duration
	// Clock substitutes the scheduler's time source for retry backoff
	// and deadlines. Nil means the real clock. Chaos suites inject
	// faultinject.ManualClock to test backoff and deadlines instantly.
	Clock faultinject.Clock
	// FaultHook, if non-nil, is consulted at every task execution and
	// journal append — the deterministic fault-injection seam. Faults it
	// returns become task failures (or panics, or simulated crashes);
	// nil, the production setting, costs nothing.
	FaultHook faultinject.Hook

	// Dispatcher, if non-nil, lets the scheduler lease observation-shard
	// tasks to remote worker processes instead of running them on the
	// local pool — the one knob behind which local and distributed
	// execution coexist. A lease carries the shard's chunk of its wave's
	// cell list; the shards of a job are the only tasks that pay cells
	// (wave 0's hold FedSV's too), so leases move every paid cell of a
	// remote job off the coordinator. A shard is leased only when it is remotable
	// (run-backed job with a persisted trace workers can hydrate, exact
	// or Monte-Carlo) and a live worker is registered; otherwise it runs
	// locally. A lease lost to a dead or expired worker, or failed by
	// the worker, fails transiently and rides the retry ladder, which
	// re-evaluates eligibility; a shard's final attempt (attempt ==
	// MaxTaskRetries, when that is positive) is never leased and runs
	// locally. So a dying or failing worker fleet degrades to local
	// execution, never to a stuck, failed or differing job.
	Dispatcher *dispatch.Coordinator

	// buildValuation, if non-nil, replaces the whole staged pipeline —
	// in-package tests use it to script task graphs with controlled
	// timing. It must be cheap and infallible; the returned valuation's
	// stages carry the real work.
	buildValuation func(req Request, opts comfedsv.Options) stagedValuation
	// train trains every trace the manager needs: inline jobs' and shared
	// runs'. Nil means comfedsv.TrainCtx; in-package tests substitute it
	// to hold or fail training.
	train func(ctx context.Context, clients []comfedsv.Client, test comfedsv.Client, opts comfedsv.Options) (*comfedsv.TrainedRun, error)
}

type job struct {
	id       string
	req      Request
	opts     comfedsv.Options // effective options: defaults applied, progress hooked
	state    State
	progress comfedsv.Progress
	err      error
	report   *comfedsv.Report

	// runID mirrors req.RunID but survives the terminal-state release of
	// the request payload; runReleased guards the run's refcount against
	// double release. cacheStats is recorded when a shared-cache valuation
	// completes.
	runID       string
	runReleased bool
	cacheStats  *comfedsv.EvalStats

	// stageNanos accumulates wall-clock execution time by stage name
	// across the job's tasks (shard durations sum into one observe entry).
	// Guarded by Manager.mu; retained after the terminal state so status
	// keeps reporting where the job's time went.
	stageNanos map[string]int64

	// Scheduler state. ctx spans the job's whole execution; cancel is
	// called on Cancel, failure, completion, and abort. ready holds the
	// stage tasks eligible to run now (FIFO within the job); inflight
	// counts tasks currently executing on workers. failed records the
	// first task failure — the job finalizes once the last in-flight task
	// drains. val is the staged pipeline, built at submit, released on
	// completion.
	ctx        context.Context
	cancel     context.CancelFunc
	ready      []*task
	inflight   int
	inRing     bool
	failed     error
	val        stagedValuation
	persistErr error

	// Crash-safety state. journal is the job's append-only task journal
	// (nil without a Store); sealJ hands it off to sealJournal exactly
	// once at the terminal transition. recovered marks a job rebuilt
	// from a journal; wantDigests holds the journaled observation-shard
	// content hashes a recovered job verifies its re-executed shards
	// against. pendingRetries counts transiently failed tasks sleeping
	// out their backoff; retries/lastErr feed the status fields.
	// userCancelled distinguishes an explicit Cancel (journal removed —
	// a restart must not resurrect the job) from a shutdown cancellation
	// (journal kept — a restart resumes the job).
	journal        *persist.Journal
	sealJ          *persist.Journal
	recovered      bool
	userCancelled  bool
	wantDigests    map[int]string
	pendingRetries int
	retries        int
	lastErr        string

	shardsTotal int
	shardsDone  int
	shardsLeft  int

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// task is one schedulable unit of a job's stage graph. run executes
// outside the manager lock with the job's context; done advances the stage
// graph (enqueue successors or finalize the job) and is called under the
// manager lock after run returns nil.
type task struct {
	j     *job
	stage string
	shard int // observation shard index; -1 for non-shard stages
	// attempt counts prior executions of this task; the retry ladder
	// re-enqueues the same task with attempt incremented.
	attempt int
	// remote marks an observation shard claimed for lease-based execution
	// on a remote worker. It is decided anew at every claim (a retry of a
	// lost lease may run locally if the worker fleet emptied) and makes
	// the pool spawn a tracked waiter goroutine instead of parking a pool
	// worker on the lease.
	remote bool
	run    func(ctx context.Context) error
	done   func()
}

// Task stage names, used by the metrics counters and the fairness tests.
const (
	taskPrepare  = "prepare"
	taskObserve  = "observe"
	taskComplete = "complete"
	taskShapley  = "shapley"
)

// Manager executes valuation jobs as staged task graphs on a bounded
// worker pool. Scheduling state is a ring of jobs with ready tasks,
// guarded by mu (not a channel): the pool pops tasks round-robin across
// jobs — one task per turn — so a 1000-shard job and a 1-shard job
// submitted behind it interleave instead of the big job holding the head
// of a FIFO, and cancelling a job can drain its queued tasks immediately.
type Manager struct {
	cfg   Config
	wg    sync.WaitGroup // task workers + TTL janitor
	runWG sync.WaitGroup // shared-run training goroutines

	mu       sync.Mutex
	cond     *sync.Cond // signaled on task enqueue, task completion, close, and abort
	ring     []*job     // round-robin ring of jobs with ready tasks
	queued   int        // jobs in StateQueued (bounded by QueueDepth)
	inflight int        // tasks currently executing across all jobs
	jobs     map[string]*job
	order    []string
	runs     map[string]*runEntry
	runOrder []string
	closed   bool
	aborted  bool

	janitorStop chan struct{}

	// pendingRetries counts tasks sleeping out a retry backoff across all
	// jobs — workers must not exit while one is pending.
	pendingRetries int
	clock          faultinject.Clock

	// registry holds every /v1/metrics family (registerMetrics); met
	// holds the handles the scheduler feeds.
	registry telemetry.Registry
	met      managerMetrics
}

// NewManager starts a manager and its worker pool. If cfg.Store holds
// reports from a previous process, they appear immediately as done jobs
// whose reports are loaded lazily from disk.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultParallelism <= 0 {
		cfg.DefaultParallelism = runtime.GOMAXPROCS(0) / cfg.Workers
		if cfg.DefaultParallelism < 1 {
			cfg.DefaultParallelism = 1
		}
	}
	if cfg.DefaultShards <= 0 {
		cfg.DefaultShards = 1
	}
	if cfg.train == nil {
		cfg.train = comfedsv.TrainCtx
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 50 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = faultinject.RealClock{}
	}
	m := &Manager{
		cfg:         cfg,
		clock:       cfg.Clock,
		jobs:        make(map[string]*job),
		runs:        make(map[string]*runEntry),
		janitorStop: make(chan struct{}),
	}
	m.registerMetrics()
	m.cond = sync.NewCond(&m.mu)
	if cfg.RunStore != nil {
		ids, err := cfg.RunStore.ListRuns()
		if err != nil {
			return nil, fmt.Errorf("service: scanning run store: %w", err)
		}
		for _, id := range ids {
			done := make(chan struct{})
			close(done)
			e := &runEntry{id: id, state: RunReady, done: done, persisted: true}
			// The original timestamps are gone with the old process; the
			// trace file's mtime is the best available stand-in.
			if mtime, err := cfg.RunStore.ModTime(id); err == nil {
				e.created = mtime
				e.trained = mtime
			}
			m.runs[id] = e
			m.runOrder = append(m.runOrder, id)
		}
	}
	if cfg.Store != nil {
		ids, err := cfg.Store.ListJobReports()
		if err != nil {
			return nil, fmt.Errorf("service: scanning job store: %w", err)
		}
		for _, id := range ids {
			j := &job{id: id, state: StateDone}
			// The original timestamps are gone with the old process; the
			// report file's mtime is the best available stand-in.
			if mtime, err := cfg.Store.ReportModTime(id); err == nil {
				j.submitted = mtime
				j.finished = mtime
			}
			m.jobs[id] = j
			m.order = append(m.order, id)
		}
		// Replay the journals of jobs a previous process left in flight —
		// before the worker pool starts, so recovery needs no locking and
		// recovered jobs are queued ahead of fresh submissions.
		if err := m.recoverJournals(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if cfg.JobTTL > 0 {
		m.wg.Add(1)
		go m.janitor(cfg.JobTTL)
	}
	return m, nil
}

// Workers returns the worker-pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Dispatcher returns Config.Dispatcher: the shard coordinator whose
// worker endpoints the HTTP server mounts, nil when execution is local.
func (m *Manager) Dispatcher() *dispatch.Coordinator { return m.cfg.Dispatcher }

// DefaultParallelism returns the per-task parallelism applied to
// submissions that don't set their own.
func (m *Manager) DefaultParallelism() int { return m.cfg.DefaultParallelism }

// DefaultShards returns the observation shard count applied to submissions
// that don't set their own.
func (m *Manager) DefaultShards() int { return m.cfg.DefaultShards }

// Submit validates run references and queue capacity — the pipeline itself
// rejects otherwise malformed requests when the job runs — and returns the
// new job's ID, or ErrQueueFull / ErrShutdown / ErrRunNotFound. A
// run-backed submission pins its run (DeleteRun refuses until the job is
// terminal); a job may reference a run that is still training and will
// wait for it without parking a worker.
func (m *Manager) Submit(req Request) (string, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        newJobID(),
		req:       req,
		runID:     req.RunID,
		state:     StateQueued,
		ctx:       ctx,
		cancel:    cancel,
		submitted: time.Now(),
	}
	opts := req.Options
	if opts.Parallelism == 0 {
		opts.Parallelism = m.cfg.DefaultParallelism
	}
	if opts.Shards == 0 {
		opts.Shards = m.cfg.DefaultShards
	}
	j.opts = m.instrumentOptions(j, opts)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return "", ErrShutdown
	}
	if m.queued >= m.cfg.QueueDepth {
		m.met.jobsRejected.Inc()
		m.mu.Unlock()
		cancel()
		return "", ErrQueueFull
	}
	if req.RunID != "" {
		if len(req.Clients) > 0 || len(req.Test.X) > 0 || len(req.Test.Y) > 0 {
			m.mu.Unlock()
			cancel()
			return "", errors.New("service: request has both run_id and inline clients/test")
		}
		e, ok := m.runs[req.RunID]
		if !ok {
			m.mu.Unlock()
			cancel()
			return "", fmt.Errorf("%w: %s", ErrRunNotFound, req.RunID)
		}
		e.refs++
	}
	j.val = m.newValuation(j)
	m.queued++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	// The submit record must be durable before the first task can run —
	// a crash at any later point can then always re-derive the job. The
	// fsync happens outside the lock; the job is visible (queued) but has
	// no ready task until the journal is attached.
	var crashErr error
	if m.cfg.Store != nil {
		crashErr = m.openSubmitJournal(j)
	}

	m.mu.Lock()
	switch {
	case crashErr != nil:
		// Simulated process death during the submit append: the job dies
		// the way the process would have, never having run a task.
		if !j.state.Terminal() {
			j.failed = crashErr
			m.failLocked(j, crashErr)
		}
		m.mu.Unlock()
		m.sealJournal(j)
	case j.state.Terminal():
		// Cancelled in the submit window; nothing to schedule.
		m.mu.Unlock()
		m.sealJournal(j)
	default:
		m.enqueueLocked(j, m.prepareTask(j))
		m.mu.Unlock()
	}
	m.logJob("job submitted", j, "shards_requested", opts.Shards, "parallelism", opts.Parallelism)
	return j.id, nil
}

// logJob emits one job-lifecycle record when a logger is configured. The
// attrs always include the job ID and, for run-backed jobs, the run ID.
// Lifecycle transitions are rare next to task executions (the per-task hot
// path never logs), so the terminal-state call sites tolerate holding m.mu
// for the one-line write.
func (m *Manager) logJob(msg string, j *job, args ...any) {
	if m.cfg.Logger == nil {
		return
	}
	fields := make([]any, 0, len(args)+4)
	fields = append(fields, "job_id", j.id)
	if j.runID != "" {
		fields = append(fields, "run_id", j.runID)
	}
	fields = append(fields, args...)
	m.cfg.Logger.Info(msg, fields...)
}

// Status returns a snapshot of the job.
func (m *Manager) Status(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// List returns snapshots of every known job in submission order (jobs
// recovered from the store come first).
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].snapshot())
	}
	return out
}

// Counts returns the number of jobs in each state.
func (m *Manager) Counts() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := make(map[State]int, 4)
	for _, j := range m.jobs {
		counts[j.state]++
	}
	return counts
}

// Report returns the finished report of a done job, loading it from the
// store when the report is not resident (a job recovered from a previous
// process). It returns ErrNotDone while the job is queued or running and
// ErrFailed (wrapping the job's failure error) for terminally failed jobs,
// so callers can distinguish retry-later from never.
func (m *Manager) Report(id string) (*comfedsv.Report, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	switch {
	case j.state == StateDone && j.report != nil:
		rep := j.report
		m.mu.Unlock()
		return rep, nil
	case j.state == StateFailed:
		err := j.err
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrFailed, err)
	case j.state != StateDone:
		m.mu.Unlock()
		return nil, ErrNotDone
	}
	m.mu.Unlock()

	// Done but not resident: recover from disk outside the lock.
	if m.cfg.Store == nil {
		return nil, fmt.Errorf("service: job %s report not resident and no store configured", id)
	}
	var rep comfedsv.Report
	if err := m.cfg.Store.LoadJobReport(id, &rep); err != nil {
		return nil, err
	}
	m.mu.Lock()
	j.report = &rep
	m.mu.Unlock()
	return &rep, nil
}

// Cancel stops a job: a queued job fails immediately with ErrCancelled; a
// running job has its context cancelled and its remaining queued stage
// tasks drained from the scheduler, then fails once its in-flight tasks
// observe the cancellation. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	seal := false
	switch j.state {
	case StateQueued:
		j.userCancelled = true
		m.drainLocked(j)
		m.failLocked(j, ErrCancelled)
		seal = true
	case StateRunning:
		j.userCancelled = true
		j.cancel()
		m.drainLocked(j)
		if j.failed == nil {
			j.failed = ErrCancelled
		}
		if j.inflight == 0 && j.pendingRetries == 0 {
			m.failLocked(j, j.failed)
			seal = true
		}
	}
	m.mu.Unlock()
	if seal {
		m.sealJournal(j)
	}
	return nil
}

// DeleteJob removes a terminal job from the manager and, when a Store is
// configured, deletes its persisted artifacts. Deleting a queued or
// running job fails with ErrJobActive — cancel it first.
func (m *Manager) DeleteJob(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if !j.state.Terminal() {
		state := j.state
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrJobActive, id, state)
	}
	m.mu.Unlock()

	// The disk deletion happens outside the lock (the evictExpired
	// pattern): a slow store must not stall the scheduler and every API
	// read behind the manager mutex. Terminal states are final, so the
	// only thing the re-check below guards against is a concurrent
	// delete or TTL eviction of the same job.
	if m.cfg.Store != nil {
		if err := m.cfg.Store.DeleteJob(id); err != nil {
			return err
		}
	}
	m.mu.Lock()
	if _, ok := m.jobs[id]; ok {
		m.removeJobLocked(id)
	}
	m.mu.Unlock()
	return nil
}

// removeJobLocked drops a job from the registry maps. Callers hold m.mu
// and have already established the job is terminal.
func (m *Manager) removeJobLocked(id string) {
	delete(m.jobs, id)
	for i, jid := range m.order {
		if jid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// enqueueLocked appends stage tasks to a job's ready list and places the
// job in the fairness ring if absent. Callers hold m.mu.
func (m *Manager) enqueueLocked(j *job, tasks ...*task) {
	j.ready = append(j.ready, tasks...)
	if !j.inRing && len(j.ready) > 0 {
		m.ring = append(m.ring, j)
		j.inRing = true
	}
	m.cond.Broadcast()
}

// drainLocked removes a job's queued tasks from the scheduler (its
// in-flight tasks keep running until they observe cancellation). Callers
// hold m.mu.
func (m *Manager) drainLocked(j *job) {
	j.ready = nil
	if j.inRing {
		for i, r := range m.ring {
			if r == j {
				m.ring = append(m.ring[:i], m.ring[i+1:]...)
				break
			}
		}
		j.inRing = false
	}
}

// popTaskLocked removes and returns the next runnable stage task under the
// per-job round-robin policy — the replacement for the old job-FIFO
// popEligibleLocked. The first eligible job in the ring surrenders its
// front task and rotates to the back (if it still has ready tasks), so K
// jobs take turns task by task instead of the head job monopolizing the
// pool. Queued jobs referencing a run that is still training are skipped
// in place — they stay scheduled (not parked on a worker) so the pool
// keeps serving unrelated jobs during a long training; trainRun's
// completion broadcast re-examines them. During an abort everything is
// eligible: the job contexts are cancelled, so popped tasks fail fast.
// Callers hold m.mu.
func (m *Manager) popTaskLocked() *task {
	for i := 0; i < len(m.ring); i++ {
		j := m.ring[i]
		if j.runID != "" && j.state == StateQueued && !m.aborted {
			if e, ok := m.runs[j.runID]; ok && e.state == RunTraining {
				continue
			}
		}
		t := j.ready[0]
		j.ready = j.ready[1:]
		m.ring = append(m.ring[:i], m.ring[i+1:]...)
		if len(j.ready) > 0 {
			m.ring = append(m.ring, j)
		} else {
			j.inRing = false
		}
		return t
	}
	return nil
}

// claimLocked accounts a popped task as running: the job's first task
// moves it to StateRunning. It reports whether this claim performed that
// queued→running transition, so the caller can record the queue wait and
// log the start outside the lock. Callers hold m.mu.
func (m *Manager) claimLocked(t *task) (startedNow bool) {
	j := t.j
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
		m.queued--
		startedNow = true
	}
	j.inflight++
	m.inflight++
	return startedNow
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		t := m.popTaskLocked()
		for t == nil {
			// Pending retries count as outstanding work: their tasks
			// re-enqueue after the backoff, so the pool must stay alive.
			if (m.closed || m.aborted) && len(m.ring) == 0 && m.inflight == 0 && m.pendingRetries == 0 {
				m.mu.Unlock()
				return
			}
			m.cond.Wait()
			t = m.popTaskLocked()
		}
		startedNow := m.claimLocked(t)
		t.remote = m.remoteEligibleLocked(t)
		m.mu.Unlock()
		if startedNow {
			// started and submitted are written once, before this point,
			// so reading them without the lock is safe.
			wait := t.j.started.Sub(t.j.submitted)
			m.met.queueWait.ObserveDuration(wait)
			m.logJob("job started", t.j, "queue_wait_ms", wait.Milliseconds())
			if m.cfg.JobTimeout > 0 {
				m.wg.Add(1)
				go m.jobWatchdog(t.j)
			}
		}
		if t.remote {
			// A leased shard waits on a remote worker, not on CPU: parking
			// a pool worker for the round-trip would let a slow fleet
			// starve local jobs. The wait moves to a tracked goroutine and
			// this worker immediately serves the next task; inflight
			// accounting (already claimed) keeps shutdown correct.
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				start := time.Now()
				err := m.execute(t)
				m.taskDone(t, err, time.Since(start))
			}()
			continue
		}
		start := time.Now()
		err := m.execute(t)
		m.taskDone(t, err, time.Since(start))
	}
}

// remoteEligibleLocked decides whether a claimed task runs as a remote
// lease: an observation shard of a run-backed job whose trace is
// persisted in the shared run store (workers hydrate by content-addressed
// run ID), exact and Monte-Carlo alike, with at least one live worker
// registered and at least one retry left — the final attempt runs
// locally, so a worker that fails every lease cannot fail the job.
// Decided at claim time so a retry after a lost lease re-evaluates — an
// emptied fleet degrades the shard to local execution. Callers hold m.mu.
func (m *Manager) remoteEligibleLocked(t *task) bool {
	d := m.cfg.Dispatcher
	if d == nil || t.stage != taskObserve || t.j.runID == "" {
		return false
	}
	if m.cfg.MaxTaskRetries > 0 && t.attempt == m.cfg.MaxTaskRetries {
		return false
	}
	e, ok := m.runs[t.j.runID]
	if !ok || !e.persisted {
		return false
	}
	return d.HasLiveWorkers()
}

// execute runs one stage task, converting a panic in the pipeline into a
// task failure with the goroutine stack in the job error: one poisoned job
// must not take down the daemon and every other job with it. The fault
// hook is consulted first — its faults become task failures, panics, or
// simulated crashes — and a positive Config.TaskTimeout bounds the
// execution, an expiry failing the task transiently so the retry ladder
// gets another shot.
func (m *Manager) execute(t *task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if err := t.j.ctx.Err(); err != nil {
		return err
	}
	if hook := m.cfg.FaultHook; hook != nil {
		ferr := hook(faultinject.Point{Op: faultinject.OpTask, Stage: t.stage, Shard: t.shard, Attempt: t.attempt, JobID: t.j.id})
		if ferr != nil {
			var pe *faultinject.PanicError
			if errors.As(ferr, &pe) {
				panic(pe.Msg)
			}
			return ferr
		}
	}

	ctx := t.j.ctx
	if d := m.cfg.TaskTimeout; d > 0 {
		tctx, cancel := context.WithCancelCause(ctx)
		finished := make(chan struct{})
		defer close(finished)
		defer cancel(nil)
		go func() {
			select {
			case <-m.clock.After(d):
				cancel(ErrTaskTimeout)
			case <-finished:
			}
		}()
		ctx = tctx
	}
	err = t.run(ctx)
	if err != nil && errors.Is(context.Cause(ctx), ErrTaskTimeout) && t.j.ctx.Err() == nil {
		err = MarkTransient(fmt.Errorf("%w: %s task exceeded %v", ErrTaskTimeout, t.stage, m.cfg.TaskTimeout))
	}
	return err
}

// taskDone retires an executed task. A transient failure within the
// retry budget schedules a backoff re-execution instead of failing the
// job; any other failure cancels the job and drains its remaining tasks,
// and the job finalizes once its last in-flight task (and last pending
// retry) returns. On success the task's done hook advances the stage
// graph. dur is the task's wall-clock execution time, recorded into the
// stage's latency histogram and the job's per-stage duration map.
func (m *Manager) taskDone(t *task, err error, dur time.Duration) {
	m.mu.Lock()
	j := t.j
	j.inflight--
	m.inflight--
	m.met.tasksExecuted.With(t.stage).Inc()
	if t.stage == taskObserve {
		m.met.shardTasks.Inc()
	}
	m.met.taskLatency.With(t.stage).ObserveDuration(dur)
	if j.stageNanos == nil {
		j.stageNanos = make(map[string]int64, 4)
	}
	j.stageNanos[t.stage] += dur.Nanoseconds()

	if err != nil && j.failed == nil && j.ctx.Err() == nil &&
		IsTransient(err) && t.attempt < m.cfg.MaxTaskRetries {
		// Transient failure with retry budget left: the task re-executes
		// after a deterministic backoff. Re-execution is safe — every
		// stage is a pure function of the job's request.
		t.attempt++
		j.retries++
		j.lastErr = err.Error()
		m.met.taskRetries.With(t.stage).Inc()
		j.pendingRetries++
		m.pendingRetries++
		delay := m.retryDelay(j, t.stage, t.shard, t.attempt)
		m.wg.Add(1)
		go m.retryAfter(t, delay)
		m.logJob("task failed transiently", j,
			"stage", t.stage, "shard", t.shard, "attempt", t.attempt,
			"backoff_ms", delay.Milliseconds(), "error", err.Error())
		m.cond.Broadcast()
		m.mu.Unlock()
		return
	}

	if err != nil && j.failed == nil {
		j.failed = err
		j.cancel()
		m.drainLocked(j)
	}
	if j.failed != nil {
		seal := false
		if j.inflight == 0 && j.pendingRetries == 0 && !j.state.Terminal() {
			// If the extraction stage produced (and possibly persisted)
			// the report before the failure was observed, the failure
			// lost the race: complete the job — failing it here would
			// strand a persisted report that a restart resurrects as a
			// done job the caller was told failed.
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
	if t.done != nil {
		t.done()
	}
	seal := j.state.Terminal()
	m.cond.Broadcast()
	m.mu.Unlock()
	if seal {
		m.sealJournal(j)
	}
}

// failLocked moves a non-terminal job to StateFailed, releases its request
// payload and pipeline (client datasets can be large; only the report
// matters after a terminal state), and drops its shared-run reference.
// Callers hold m.mu and guarantee the job has no in-flight tasks — task
// closures read j.req without the lock, so the payload must not be cleared
// under a live task.
func (m *Manager) failLocked(j *job, err error) {
	if j.state == StateQueued {
		m.queued--
	}
	j.cancel()
	j.state = StateFailed
	j.err = err
	j.finished = time.Now()
	j.req = Request{}
	j.val = nil
	j.ready = nil
	j.sealJ, j.journal = j.journal, nil
	m.releaseRunLocked(j)
	m.logJob("job failed", j, "error", err.Error(), "duration_ms", j.finished.Sub(j.submitted).Milliseconds())
}

// completeJobLocked moves a job to StateDone after its extraction task
// stashed the report. Callers hold m.mu.
func (m *Manager) completeJobLocked(j *job) {
	j.cancel()
	j.state = StateDone
	j.err = j.persistErr
	j.finished = time.Now()
	j.req = Request{}
	j.val = nil
	j.sealJ, j.journal = j.journal, nil
	m.releaseRunLocked(j)
	dur := j.finished.Sub(j.submitted)
	m.met.jobDuration.ObserveDuration(dur)
	m.logJob("job done", j, "duration_ms", dur.Milliseconds(), "shards", j.shardsTotal)
}

// Shutdown stops accepting submissions and run registrations, drains
// queued jobs (including ones waiting for a run still in training), and
// waits for workers and training goroutines to finish. If the context
// expires first, the remaining backlog is failed with ErrCancelled,
// running jobs and in-flight trainings are cancelled, and Shutdown returns
// the context's error once both pools exit.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.janitorStop)
		m.cond.Broadcast()
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		m.runWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		m.aborted = true
		var sealed []*job
		for _, j := range m.jobs {
			switch j.state {
			case StateQueued:
				m.drainLocked(j)
				m.failLocked(j, ErrCancelled)
				sealed = append(sealed, j)
			case StateRunning:
				j.cancel()
				m.drainLocked(j)
				if j.failed == nil {
					j.failed = ErrCancelled
				}
				if j.inflight == 0 && j.pendingRetries == 0 {
					m.failLocked(j, j.failed)
					sealed = append(sealed, j)
				}
			}
		}
		for _, e := range m.runs {
			if e.state == RunTraining && e.cancelTrain != nil {
				e.cancelTrain()
			}
		}
		m.cond.Broadcast()
		m.mu.Unlock()
		// Shutdown cancellations keep journals on disk — these jobs
		// resume when the next process replays them.
		for _, j := range sealed {
			m.sealJournal(j)
		}
		<-done
		return ctx.Err()
	}
}

// janitor periodically evicts terminal jobs older than the TTL.
func (m *Manager) janitor(ttl time.Duration) {
	defer m.wg.Done()
	interval := ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
			m.evictExpired(ttl)
		}
	}
}

// evictExpired removes terminal jobs that finished before the TTL cutoff,
// deleting their persisted artifacts best-effort (a job whose report
// cannot be deleted stays registered and is retried next sweep, so the
// in-memory view never claims an eviction disk still contradicts).
func (m *Manager) evictExpired(ttl time.Duration) {
	cutoff := time.Now().Add(-ttl)
	m.mu.Lock()
	var expired []string
	for id, j := range m.jobs {
		if j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(cutoff) {
			expired = append(expired, id)
		}
	}
	m.mu.Unlock()

	for _, id := range expired {
		if m.cfg.Store != nil {
			if err := m.cfg.Store.DeleteJob(id); err != nil {
				continue
			}
		}
		m.mu.Lock()
		j, ok := m.jobs[id]
		if ok && j.state.Terminal() {
			m.removeJobLocked(id)
			m.met.jobsEvicted.Inc()
		} else {
			j = nil
		}
		m.mu.Unlock()
		if j != nil {
			m.logJob("job evicted", j, "ttl", ttl.String())
		}
	}
}

// snapshot must be called with m.mu held.
func (j *job) snapshot() Status {
	s := Status{
		ID:          j.id,
		State:       j.state,
		Progress:    j.progress,
		Shards:      j.shardsTotal,
		ShardsDone:  j.shardsDone,
		RunID:       j.runID,
		SubmittedAt: j.submitted,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	s.Retries = j.retries
	s.LastError = j.lastErr
	if j.cacheStats != nil {
		cs := *j.cacheStats
		s.CacheStats = &cs
	}
	if j.report != nil {
		s.ObservationsUsed = j.report.ObservationsUsed
		s.ObservationsBudget = j.report.ObservationsBudget
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	if len(j.stageNanos) > 0 {
		s.StageSeconds = make(map[string]float64, len(j.stageNanos))
		for stage, nanos := range j.stageNanos {
			s.StageSeconds[stage] = float64(nanos) / 1e9
		}
	}
	return s
}

func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: crypto/rand failed: %v", err))
	}
	return "job-" + hex.EncodeToString(b[:])
}
