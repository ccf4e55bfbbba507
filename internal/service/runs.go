package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"comfedsv"
)

// RunState is a shared training run's lifecycle phase.
type RunState string

// Run lifecycle: CreateRun registers a run in RunTraining; the training
// goroutine moves it to RunReady or RunFailed. Runs recovered from a
// RunStore start in RunReady (the trace is loaded lazily on first use).
const (
	RunTraining RunState = "training"
	RunReady    RunState = "ready"
	RunFailed   RunState = "failed"
)

// Errors returned by the run-registry methods.
var (
	ErrRunNotFound = errors.New("service: no such run")
	ErrRunBusy     = errors.New("service: run is referenced by active jobs")
)

// RunSpec describes one shared training run: the federated datasets plus
// the training half of the valuation options. Only the training-relevant
// Options fields (NumClasses, Rounds, ClientsPerRound, LearningRate,
// Model, HiddenUnits, Seed) participate in the run's identity — jobs that
// differ only in valuation settings (Rank, MonteCarloSamples,
// Parallelism) map to the same run and share its trace and evaluator
// cache. Seed is training-relevant: it drives client selection and
// initialization, so different seeds are different traces.
type RunSpec struct {
	Clients []comfedsv.Client
	Test    comfedsv.Client
	Options comfedsv.Options
}

// RunIDForSpec derives the content-addressed run ID: a versioned SHA-256
// over a canonical binary encoding of the datasets and the training
// fields. Equal specs always collide onto one ID — that is the mechanism
// by which N submissions of the same training problem train exactly once —
// and the encoding is independent of JSON quirks (NaN payloads, float
// formatting), so any byte-identical dataset hashes identically.
func RunIDForSpec(spec RunSpec) string {
	h := sha256.New()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeF64 := func(f float64) { writeU64(math.Float64bits(f)) }
	writeClient := func(c comfedsv.Client) {
		writeU64(uint64(len(c.X)))
		for _, row := range c.X {
			writeU64(uint64(len(row)))
			for _, v := range row {
				writeF64(v)
			}
		}
		writeU64(uint64(len(c.Y)))
		for _, y := range c.Y {
			writeU64(uint64(int64(y)))
		}
	}

	const specVersion = 1
	writeU64(specVersion)
	writeU64(uint64(len(spec.Clients)))
	for _, c := range spec.Clients {
		writeClient(c)
	}
	writeClient(spec.Test)

	o := spec.Options
	writeU64(uint64(o.NumClasses))
	writeU64(uint64(o.Rounds))
	writeU64(uint64(o.ClientsPerRound))
	writeF64(o.LearningRate)
	writeU64(uint64(o.Model))
	// HiddenUnits only shapes MLP training; ignoring it otherwise lets
	// logreg specs that differ in a dead field share a run. For MLP,
	// apply the same <=0 -> 16 fallback the training pipeline applies, so
	// specs the pipeline treats identically hash identically.
	hidden := 0
	if o.Model == comfedsv.MLP {
		hidden = o.HiddenUnits
		if hidden <= 0 {
			hidden = 16
		}
	}
	writeU64(uint64(hidden))
	writeU64(uint64(o.Seed))

	return "run-" + hex.EncodeToString(h.Sum(nil)[:16])
}

// runEntry is the registry's record of one shared run. All fields are
// guarded by Manager.mu except: done is closed exactly once by the owner
// of the terminal transition; tr's evaluator counters are atomics; and the
// lazy-load fields are guarded by loadOnce's happens-before edge.
type runEntry struct {
	id    string
	state RunState
	err   error // failure reason (RunFailed) or persistence warning (RunReady)
	tr    *comfedsv.TrainedRun
	// done is closed when training completes (ready or failed); jobs
	// referencing a still-training run wait on it. Recovered entries are
	// constructed with done already closed.
	done chan struct{}
	// refs counts jobs submitted against this run that have not reached a
	// terminal state; DeleteRun refuses while refs > 0.
	refs int

	created   time.Time
	trained   time.Time
	persisted bool

	numClients int
	rounds     int

	cancelTrain context.CancelFunc // non-nil while training

	// Lazy disk load for recovered entries: loadOnce publishes loadTr and
	// loadErr to every waiter.
	loadOnce sync.Once
	loadTr   *comfedsv.TrainedRun
	loadErr  error
}

// RunStatus is a point-in-time snapshot of a shared run, safe to retain
// and serialize.
type RunStatus struct {
	ID    string   `json:"id"`
	State RunState `json:"state"`
	// Error is the failure reason for failed runs; on a ready run it is a
	// non-fatal warning (the trace trained but could not be persisted).
	Error string `json:"error,omitempty"`

	CreatedAt time.Time  `json:"created_at"`
	TrainedAt *time.Time `json:"trained_at,omitempty"`

	// NumClients and Rounds describe the trace; they are 0 for recovered
	// runs whose trace has not been loaded from disk yet.
	NumClients int `json:"num_clients,omitempty"`
	Rounds     int `json:"rounds,omitempty"`

	// ActiveJobs counts non-terminal jobs referencing this run; DELETE is
	// refused while it is nonzero.
	ActiveJobs int `json:"active_jobs"`

	// CacheHits and CacheMisses are the shared evaluator's cumulative
	// ledger across every job that valued against this run: misses are
	// distinct test-loss evaluations paid for, hits are lookups amortized
	// by the shared memo table.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`

	// Persisted reports whether the trace is on disk and will survive a
	// restart.
	Persisted bool `json:"persisted"`
}

// CreateRun registers (and, if new, trains) the shared run for the given
// spec. The run ID is content-addressed, so concurrent and repeated
// submissions of the same spec converge on one registry entry and the
// training runs exactly once; subsequent calls return the existing run's
// status with created == false. Re-registering a spec whose previous
// training failed retries the training (a transient failure must not
// tombstone the content address), unless jobs still reference the failed
// entry. Training happens asynchronously on its own goroutine — poll
// RunStatus or submit a job referencing the ID (jobs stay queued until
// the run leaves the training state).
func (m *Manager) CreateRun(spec RunSpec) (RunStatus, bool, error) {
	id := RunIDForSpec(spec)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return RunStatus{}, false, ErrShutdown
	}
	if e, ok := m.runs[id]; ok {
		// Retry a dead entry nobody references; anything else dedups.
		if !(e.state == RunFailed && e.refs == 0) {
			st := m.runStatusLocked(e)
			m.mu.Unlock()
			return st, false, nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &runEntry{
		id:          id,
		state:       RunTraining,
		done:        make(chan struct{}),
		created:     time.Now(),
		cancelTrain: cancel,
	}
	if _, retry := m.runs[id]; !retry {
		m.runOrder = append(m.runOrder, id)
	}
	m.runs[id] = e
	m.runWG.Add(1)
	st := m.runStatusLocked(e)
	m.mu.Unlock()
	m.logRun("run registered", id, "clients", len(spec.Clients))
	go m.trainRun(ctx, e, spec)
	return st, true, nil
}

// logRun emits one run-lifecycle record when a logger is configured.
// Callers must not hold m.mu.
func (m *Manager) logRun(msg, id string, args ...any) {
	if m.cfg.Logger == nil {
		return
	}
	fields := make([]any, 0, len(args)+2)
	fields = append(fields, "run_id", id)
	fields = append(fields, args...)
	m.cfg.Logger.Info(msg, fields...)
}

// trainRun executes one shared run's training and publishes the result.
func (m *Manager) trainRun(ctx context.Context, e *runEntry, spec RunSpec) {
	defer m.runWG.Done()
	// Shared-run trainings feed the same train-stage latency histogram as
	// inline-job trainings (run identity ignores the hook, and Options is
	// this goroutine's copy of the spec).
	m.observeStageTimes(&spec.Options)
	tr, err := m.train(ctx, spec)
	// Like job reports, a persistence failure must not discard a
	// successfully trained run: it stays usable in memory with the store
	// error recorded as a warning.
	var warn error
	if err == nil && m.cfg.RunStore != nil {
		if serr := m.cfg.RunStore.SaveRun(e.id, tr.Run()); serr != nil {
			warn = fmt.Errorf("service: persisting run: %w", serr)
		}
	}
	if err == nil {
		// Warm-start from the cell sidecar a previous process (or a
		// retried training of the same content address) left behind —
		// before the run is published, so the first job already hits.
		m.preloadCells(e.id, tr)
	}

	m.mu.Lock()
	e.cancelTrain = nil
	if err != nil {
		if errors.Is(err, context.Canceled) {
			err = ErrCancelled
		}
		e.state = RunFailed
		e.err = err
	} else {
		e.state = RunReady
		e.tr = tr
		e.err = warn
		e.persisted = m.cfg.RunStore != nil && warn == nil
		e.numClients = tr.NumClients()
		e.rounds = tr.NumRounds()
		e.trained = time.Now()
	}
	close(e.done)
	// Queued jobs referencing this run just became eligible; wake the pool.
	m.cond.Broadcast()
	m.mu.Unlock()
	if err != nil {
		m.logRun("run training failed", e.id, "error", err.Error())
	} else {
		m.logRun("run ready", e.id, "train_ms", e.trained.Sub(e.created).Milliseconds(), "rounds", e.rounds)
	}
}

// train runs one training, converting a panic into a run failure so one
// poisoned spec cannot take down the daemon.
func (m *Manager) train(ctx context.Context, spec RunSpec) (tr *comfedsv.TrainedRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr, err = nil, fmt.Errorf("service: run training panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return m.cfg.train(ctx, spec.Clients, spec.Test, spec.Options)
}

// runTrained returns the entry's TrainedRun once training has completed,
// lazily loading recovered entries from the RunStore. Callers must have
// observed <-e.done first.
func (m *Manager) runTrained(e *runEntry) (*comfedsv.TrainedRun, error) {
	m.mu.Lock()
	if e.state == RunFailed {
		err := e.err
		m.mu.Unlock()
		return nil, err
	}
	if e.tr != nil {
		tr := e.tr
		m.mu.Unlock()
		return tr, nil
	}
	m.mu.Unlock()

	// Ready but not resident: a run recovered from a previous process.
	// Load from disk outside the lock; loadOnce collapses concurrent
	// loaders onto one read.
	e.loadOnce.Do(func() {
		if m.cfg.RunStore == nil {
			e.loadErr = fmt.Errorf("service: run %s trace not resident and no run store configured", e.id)
			return
		}
		run, err := m.cfg.RunStore.LoadRun(e.id)
		if err != nil {
			e.loadErr = err
			return
		}
		e.loadTr = comfedsv.NewTrainedRun(run)
		// Recovered run, fresh evaluator: warm-start it from the sidecar
		// inside the once, before any waiter can evaluate against it.
		m.preloadCells(e.id, e.loadTr)
	})

	m.mu.Lock()
	defer m.mu.Unlock()
	if e.loadErr != nil {
		// A corrupt or unreadable trace poisons the run for everyone;
		// record it so the status surfaces the reason.
		e.state = RunFailed
		e.err = e.loadErr
		return nil, e.loadErr
	}
	if e.tr == nil {
		e.tr = e.loadTr
		e.numClients = e.tr.NumClients()
		e.rounds = e.tr.NumRounds()
	}
	return e.tr, nil
}

// RunStatus returns a snapshot of the shared run.
func (m *Manager) RunStatus(id string) (RunStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.runs[id]
	if !ok {
		return RunStatus{}, ErrRunNotFound
	}
	return m.runStatusLocked(e), nil
}

// Runs returns snapshots of every registered run in registration order
// (runs recovered from the store come first).
func (m *Manager) Runs() []RunStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RunStatus, 0, len(m.runOrder))
	for _, id := range m.runOrder {
		out = append(out, m.runStatusLocked(m.runs[id]))
	}
	return out
}

// RunCounts returns the number of runs in each state.
func (m *Manager) RunCounts() map[RunState]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := make(map[RunState]int, 3)
	for _, e := range m.runs {
		counts[e.state]++
	}
	return counts
}

// DeleteRun removes a run from the registry and, if persisted, from disk.
// It fails with ErrRunBusy while the run is still training or while any
// non-terminal job references it — deleting a trace out from under a
// valuation would poison it.
func (m *Manager) DeleteRun(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.runs[id]
	if !ok {
		return ErrRunNotFound
	}
	if e.state == RunTraining {
		return fmt.Errorf("%w: %s is still training", ErrRunBusy, id)
	}
	if e.refs > 0 {
		return fmt.Errorf("%w: %s (%d active jobs)", ErrRunBusy, id, e.refs)
	}
	if m.cfg.RunStore != nil {
		if err := m.cfg.RunStore.DeleteRun(id); err != nil {
			return err
		}
	}
	if e.tr != nil {
		// Hand the run's warm hits to the retained counter under the same
		// lock as the removal, so the warm-hit counter never drops.
		_, warm := e.tr.CellCacheStats()
		m.met.deletedWarmHits.Add(int64(warm))
	}
	delete(m.runs, id)
	for i, rid := range m.runOrder {
		if rid == id {
			m.runOrder = append(m.runOrder[:i], m.runOrder[i+1:]...)
			break
		}
	}
	return nil
}

// runStatusLocked snapshots an entry. Callers hold m.mu; the evaluator
// counters are atomics, so reading them here is safe even while jobs are
// hammering the cache.
func (m *Manager) runStatusLocked(e *runEntry) RunStatus {
	st := RunStatus{
		ID:         e.id,
		State:      e.state,
		CreatedAt:  e.created,
		NumClients: e.numClients,
		Rounds:     e.rounds,
		ActiveJobs: e.refs,
		Persisted:  e.persisted,
	}
	if e.err != nil {
		st.Error = e.err.Error()
	}
	if !e.trained.IsZero() {
		t := e.trained
		st.TrainedAt = &t
	}
	if e.tr != nil {
		cs := e.tr.CacheStats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
	}
	return st
}

// releaseRunLocked drops a terminal job's reference on its shared run.
// Callers hold m.mu. Idempotent per job: each job releases at most once.
func (m *Manager) releaseRunLocked(j *job) {
	if j.runID == "" || j.runReleased {
		return
	}
	j.runReleased = true
	if e, ok := m.runs[j.runID]; ok {
		e.refs--
	}
}
