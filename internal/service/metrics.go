package service

import (
	"io"

	"comfedsv"
	"comfedsv/internal/telemetry"
)

// managerMetrics holds the handles of the manager's /v1/metrics families.
// Every handle is atomic, so the scheduler feeds them without m.mu.
type managerMetrics struct {
	tasksExecuted, taskRetries                   *telemetry.CounterVec
	shardTasks, jobsEvicted                      *telemetry.Counter
	jobsRecovered, jobsRejected                  *telemetry.Counter
	obsSkipped                                   *telemetry.Counter
	cellsPreloaded, cellsPersisted, cellsCorrupt *telemetry.Counter
	taskLatency, stageLatency                    *telemetry.HistogramVec
	jobDuration, queueWait                       *telemetry.Histogram
	// deletedWarmHits keeps the warm hits of deleted runs, so that
	// comfedsvd_cellcache_hit_total never goes backwards.
	deletedWarmHits telemetry.Counter
}

// registerMetrics registers every /v1/metrics family of the manager, in
// exposition order, and keeps the handles the scheduler feeds; a new
// signal is one registration here. With Config.Dispatcher set, the
// coordinator's comfedsvd_dispatch_* families follow.
func (m *Manager) registerMetrics() {
	r := &m.registry
	r.Func("comfedsvd_jobs", "Number of jobs by lifecycle state.", "gauge", "state", func(emit func(string, int64)) {
		counts := m.Counts()
		for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed} {
			emit(string(st), int64(counts[st]))
		}
	})
	r.Func("comfedsvd_runs", "Number of shared training runs by state.", "gauge", "state", func(emit func(string, int64)) {
		counts := m.RunCounts()
		for _, st := range []RunState{RunTraining, RunReady, RunFailed} {
			emit(string(st), int64(counts[st]))
		}
	})
	gauge := func(name, help string, value func() int) {
		r.Func(name, help, "gauge", "", func(emit func(string, int64)) {
			m.mu.Lock()
			v := value()
			m.mu.Unlock()
			emit("", int64(v))
		})
	}
	gauge("comfedsvd_queue_depth", "Jobs waiting to start (bounded by -queue).", func() int { return m.queued })
	gauge("comfedsvd_ready_tasks", "Stage tasks eligible to run now.", func() int {
		n := 0
		for _, j := range m.ring {
			n += len(j.ready)
		}
		return n
	})
	gauge("comfedsvd_inflight_tasks", "Stage tasks executing on workers.", func() int { return m.inflight })

	met := &m.met
	met.tasksExecuted = r.CounterVec("comfedsvd_tasks_executed_total", "Completed stage tasks by pipeline stage.", "stage")
	met.shardTasks = r.Counter("comfedsvd_shard_tasks_executed_total", "Observation shard tasks executed.")
	met.jobsEvicted = r.Counter("comfedsvd_jobs_evicted_total", "Terminal jobs evicted by the TTL janitor.")
	met.taskRetries = r.CounterVec("comfedsvd_task_retries_total", "Transient task failures re-executed via backoff, by pipeline stage.", "stage")
	met.jobsRecovered = r.Counter("comfedsvd_jobs_recovered_total", "Jobs resumed from crash journals at daemon startup.")
	met.jobsRejected = r.Counter("comfedsvd_jobs_rejected_total", "Job submissions refused by the queue bound.")
	met.obsSkipped = r.Counter("comfedsvd_observations_skipped_total", "Budgeted permutations adaptive jobs never sampled because their estimates converged early.")

	runCache := func(name, help string, value func(comfedsv.EvalStats) int) {
		r.Func(name, help, "counter", "run_id", func(emit func(string, int64)) {
			m.mu.Lock()
			defer m.mu.Unlock()
			for _, id := range m.runOrder {
				v := 0
				if tr := m.runs[id].tr; tr != nil {
					v = value(tr.CacheStats())
				}
				emit(id, int64(v))
			}
		})
	}
	runCache("comfedsvd_run_cache_hits_total", "Utility-cache lookups amortized by a run's shared memo table.", func(s comfedsv.EvalStats) int { return s.Hits })
	runCache("comfedsvd_run_cache_misses_total", "Distinct test-loss evaluations paid per run.", func(s comfedsv.EvalStats) int { return s.Misses })

	met.cellsPreloaded = r.Counter("comfedsvd_cellcache_preloaded_total", "Utility cells warm-started into run evaluators from sidecars and remote shard batches.")
	met.cellsPersisted = r.Counter("comfedsvd_cellcache_persisted_total", "Utility cells durably appended to run cell-cache sidecars.")
	r.Func("comfedsvd_cellcache_hit_total", "Utility-cache hits served by a preloaded cell (evaluations an earlier process or worker paid for).", "counter", "", func(emit func(string, int64)) {
		// Live runs plus deleted ones: DeleteRun hands a run's hits over
		// under m.mu, so no scrape counts them twice or not at all.
		m.mu.Lock()
		n := met.deletedWarmHits.Value()
		for _, e := range m.runs {
			if e.tr != nil {
				_, warm := e.tr.CellCacheStats()
				n += int64(warm)
			}
		}
		m.mu.Unlock()
		emit("", n)
	})
	met.cellsCorrupt = r.Counter("comfedsvd_cellcache_corrupt_total", "Cell-cache sidecars quarantined as corrupt (runs degraded to a cold cache).")

	met.taskLatency = r.HistogramVec("comfedsvd_task_duration_seconds", "Wall-clock execution time of scheduler stage tasks, by pipeline stage.", "stage")
	for _, stage := range []string{taskPrepare, taskObserve, taskComplete, taskShapley} {
		met.taskLatency.With(stage)
	}
	met.stageLatency = r.HistogramVec("comfedsvd_valuation_stage_duration_seconds", "Wall-clock time of comfedsv pipeline stages (train runs inside the prepare task, fedsv inside wave 0's complete task).", "stage")
	for _, stage := range []string{comfedsv.StageTrain, comfedsv.StageFedSV, comfedsv.StageObserve, comfedsv.StageComplete, comfedsv.StageShapley} {
		met.stageLatency.With(stage)
	}
	met.jobDuration = r.Histogram("comfedsvd_job_duration_seconds", "Submit-to-finish latency of completed jobs.")
	met.queueWait = r.Histogram("comfedsvd_job_queue_wait_seconds", "Submit-to-start queue wait of started jobs.")

	if d := m.cfg.Dispatcher; d != nil {
		d.RegisterMetrics(r)
	}
}

// observeStageTimes chains the valuation-stage latency histogram in front
// of opts.OnStageTime. The hook only observes; no report byte depends on
// it.
func (m *Manager) observeStageTimes(opts *comfedsv.Options) {
	prev := opts.OnStageTime
	opts.OnStageTime = func(st comfedsv.StageTiming) {
		m.met.stageLatency.With(st.Stage).ObserveDuration(st.Duration)
		if prev != nil {
			prev(st)
		}
	}
}

// WriteMetrics renders every registered family in the Prometheus text
// exposition format (version 0.0.4): the body of GET /v1/metrics.
func (m *Manager) WriteMetrics(w io.Writer) error { return m.registry.WritePrometheus(w) }

// Metrics is the slice of the manager's telemetry that in-process
// benchmark harnesses read as values; WriteMetrics renders all of it.
// Each field carries the values of the family named beside it.
type Metrics struct {
	TasksExecuted         map[string]int64                       // comfedsvd_tasks_executed_total
	TaskRetries           map[string]int64                       // comfedsvd_task_retries_total
	CellsPersisted        int64                                  // comfedsvd_cellcache_persisted_total
	ValuationStageLatency map[string]telemetry.HistogramSnapshot // comfedsvd_valuation_stage_duration_seconds
}

// Metrics snapshots the counters in Metrics.
func (m *Manager) Metrics() Metrics {
	return Metrics{
		TasksExecuted:         m.met.tasksExecuted.Values(),
		TaskRetries:           m.met.taskRetries.Values(),
		CellsPersisted:        m.met.cellsPersisted.Value(),
		ValuationStageLatency: m.met.stageLatency.Snapshot(),
	}
}
