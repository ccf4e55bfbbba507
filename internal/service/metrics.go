package service

import "comfedsv/internal/telemetry"

// Metrics is a point-in-time snapshot of the manager's operational
// counters, the data source of the daemon's /v1/metrics endpoint. All
// fields are plain values safe to retain and render after the lock is
// released.
type Metrics struct {
	// Jobs counts jobs by lifecycle state; Runs counts shared runs.
	Jobs map[State]int
	Runs map[RunState]int
	// QueuedJobs is the number of jobs waiting to start (the quantity
	// bounded by Config.QueueDepth).
	QueuedJobs int
	// ReadyTasks is the number of stage tasks currently eligible to run;
	// InflightTasks is the number executing on workers right now.
	ReadyTasks    int
	InflightTasks int
	// TasksExecuted counts completed stage tasks by stage name (prepare,
	// observe, complete, shapley) over the manager's lifetime, including
	// failed executions.
	TasksExecuted map[string]int64
	// ShardTasksExecuted is TasksExecuted's observe entry: the number of
	// observation shard tasks the scheduler has run.
	ShardTasksExecuted int64
	// JobsEvicted counts terminal jobs removed by the TTL janitor.
	JobsEvicted int64
	// TaskRetries counts transient task failures re-executed via the
	// backoff ladder, by stage name.
	TaskRetries map[string]int64
	// JobsRecovered counts jobs resumed from crash journals at startup;
	// JobsRejected counts submissions turned away by the queue bound.
	JobsRecovered int64
	JobsRejected  int64
	// ObservationsSkipped counts budgeted permutations that adaptive
	// (tolerance-driven) jobs never had to sample because their estimates
	// converged early, summed over every finished adaptive job — the
	// daemon-lifetime early-stop savings.
	ObservationsSkipped int64
	// RunCaches holds the per-run utility-cache ledgers in registration
	// order: misses are distinct test-loss evaluations paid for, hits are
	// lookups amortized by the shared memo table.
	RunCaches []RunCacheMetric

	// Persistent cell-cache counters. CellsPreloaded counts cells
	// warm-started into run evaluators (from sidecars at trace load and
	// from remote shard batches); CellsPersisted counts cells durably appended
	// to sidecars; CellsWarmHits counts cache hits served by a preloaded
	// cell — evaluations some earlier process or worker paid for;
	// CellsCorrupt counts sidecars quarantined as damaged.
	CellsPreloaded int64
	CellsPersisted int64
	CellsWarmHits  int64
	CellsCorrupt   int64

	// TaskLatency holds per-stage latency histograms of scheduler task
	// executions, keyed by stage name (prepare, observe, complete,
	// shapley). Each observation is one task's wall-clock execution time.
	TaskLatency map[string]telemetry.HistogramSnapshot
	// ValuationStageLatency holds latency histograms of the comfedsv
	// pipeline stages (train, fedsv, observe, complete, shapley) as
	// reported by the library's stage-timing hook — a finer split than
	// TaskLatency (train and fedsv both live inside the prepare task).
	ValuationStageLatency map[string]telemetry.HistogramSnapshot
	// JobDuration is the submit→finish latency histogram of done jobs;
	// JobQueueWait is the submit→start wait of every job that started.
	JobDuration  telemetry.HistogramSnapshot
	JobQueueWait telemetry.HistogramSnapshot
}

// RunCacheMetric is one shared run's cumulative cache ledger.
type RunCacheMetric struct {
	ID     string
	Hits   int
	Misses int
}

// Metrics snapshots the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Metrics{
		Jobs:                  make(map[State]int, 4),
		Runs:                  make(map[RunState]int, 3),
		QueuedJobs:            m.queued,
		InflightTasks:         m.inflight,
		TasksExecuted:         make(map[string]int64, len(m.tasksDone)),
		JobsEvicted:           m.jobsEvicted,
		TaskRetries:           make(map[string]int64, len(m.taskRetries)),
		JobsRecovered:         m.jobsRecovered,
		JobsRejected:          m.jobsRejected,
		ObservationsSkipped:   m.obsSkipped,
		CellsPreloaded:        m.cellsPreloaded,
		CellsPersisted:        m.cellsPersisted,
		CellsCorrupt:          m.cellsCorrupt,
		TaskLatency:           make(map[string]telemetry.HistogramSnapshot, len(m.taskHist)),
		ValuationStageLatency: make(map[string]telemetry.HistogramSnapshot, len(m.valHist)),
		JobDuration:           m.jobHist.Snapshot(),
		JobQueueWait:          m.waitHist.Snapshot(),
	}
	for stage, h := range m.taskHist {
		snap.TaskLatency[stage] = h.Snapshot()
	}
	for stage, h := range m.valHist {
		snap.ValuationStageLatency[stage] = h.Snapshot()
	}
	for _, j := range m.jobs {
		snap.Jobs[j.state]++
	}
	for _, j := range m.ring {
		snap.ReadyTasks += len(j.ready)
	}
	for stage, n := range m.tasksDone {
		snap.TasksExecuted[stage] = n
	}
	for stage, n := range m.taskRetries {
		snap.TaskRetries[stage] = n
	}
	snap.ShardTasksExecuted = m.tasksDone[taskObserve]
	for _, id := range m.runOrder {
		e := m.runs[id]
		snap.Runs[e.state]++
		rc := RunCacheMetric{ID: id}
		if e.tr != nil {
			cs := e.tr.CacheStats()
			rc.Hits = cs.Hits
			rc.Misses = cs.Misses
			_, warm := e.tr.CellCacheStats()
			snap.CellsWarmHits += int64(warm)
		}
		snap.RunCaches = append(snap.RunCaches, rc)
	}
	return snap
}
