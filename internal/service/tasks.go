package service

import (
	"context"
	"fmt"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/persist"
)

// stagedValuation is the scheduler's view of one job's pipeline: the stage
// graph it turns into tasks. Prepare does the serial setup (training or
// shared-run resolution, observation planning) and returns how many
// observation shards to schedule; ObserveShard calls for distinct shards
// may run concurrently and pay every cell the job reads; Complete (after
// the first wave, FedSV first) merges and solves — and, for adaptive
// (tolerance-driven) pipelines, may return further observation shards to
// schedule before the next Complete, their indices continuing where the
// previous wave's left off; Extract produces the report once Complete
// returned 0. Stats returns the shared-cache ledger, nil for pipelines
// that don't value against a shared cache (inline jobs). After Prepare,
// TrainedRun is the run the pipeline values against (nil for scripted
// test pipelines), ShardDigest hashes an observed shard's cells — the
// token the journal records and crash recovery verifies a re-executed
// shard against ("" skips the check) — and ShardCells lists the cells a
// remote lease of the shard carries.
type stagedValuation interface {
	Prepare(ctx context.Context) (shards int, err error)
	ObserveShard(ctx context.Context, shard int) error
	Complete(ctx context.Context) (moreShards int, err error)
	Extract(ctx context.Context) (*comfedsv.Report, error)
	Stats() *comfedsv.EvalStats
	TrainedRun() *comfedsv.TrainedRun
	ShardDigest(shard int) string
	ShardCells(ctx context.Context, shard int) (*comfedsv.CellBatch, error)
}

// newValuation picks the staged pipeline for a submission: the real
// comfedsv Valuation, inline or run-backed, or the test script. It is
// cheap — all heavy work happens inside the returned stages, on workers,
// under the job's context.
func (m *Manager) newValuation(j *job) stagedValuation {
	if m.cfg.buildValuation != nil {
		return m.cfg.buildValuation(j.req, j.opts)
	}
	if j.runID == "" {
		return &pipelineValuation{build: func(ctx context.Context) (*comfedsv.Valuation, bool, error) {
			// A recovered job resumes from its persisted trace when the
			// crash happened after the prepare task saved it; otherwise it
			// retrains, which — training being a seeded deterministic
			// function of the journaled request — rebuilds the identical
			// trace.
			if j.recovered && m.cfg.Store != nil {
				if run, lerr := m.cfg.Store.LoadJobRun(j.id); lerr == nil {
					return comfedsv.NewValuation(comfedsv.NewTrainedRun(run), j.opts), false, nil
				}
			}
			tr, err := m.cfg.train(ctx, j.req.Clients, j.req.Test, j.opts)
			if err != nil {
				return nil, false, err
			}
			// The trace is private to this job, so the session's ledger is
			// not a shared-cache split worth surfacing.
			return comfedsv.NewValuation(tr, j.opts), false, nil
		}}
	}
	return &pipelineValuation{build: func(ctx context.Context) (*comfedsv.Valuation, bool, error) {
		// The entry is pinned by the submit-time refcount. It may still be
		// training — the scheduler keeps the job ineligible while it is,
		// but a recovered or racing entry can reach here early, so wait on
		// the completion channel (a cancelled job stops waiting).
		m.mu.Lock()
		e := m.runs[j.runID]
		m.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-e.done:
		}
		tr, err := m.runTrained(e)
		if err != nil {
			return nil, false, fmt.Errorf("service: run %s: %w", j.runID, err)
		}
		return comfedsv.NewValuation(tr, j.opts), true, nil
	}}
}

// pipelineValuation adapts the staged comfedsv.Valuation — plus the work
// of obtaining its TrainedRun (inline training or shared-run resolution),
// which belongs on a worker, not in Submit — to the scheduler's stage
// interface. Every stage but Prepare and Stats is the embedded
// Valuation's own, set by Prepare.
type pipelineValuation struct {
	*comfedsv.Valuation
	build  func(ctx context.Context) (*comfedsv.Valuation, bool, error)
	shared bool
}

func (p *pipelineValuation) Prepare(ctx context.Context) (int, error) {
	v, shared, err := p.build(ctx)
	if err != nil {
		return 0, err
	}
	p.Valuation, p.shared = v, shared
	return v.Prepare(ctx)
}

func (p *pipelineValuation) Stats() *comfedsv.EvalStats {
	if !p.shared {
		return nil
	}
	s := p.Valuation.Stats()
	return &s
}

// prepareTask is a job's first stage: build the pipeline (training inline
// jobs, resolving shared runs) and plan the observation shards, paying no
// utility cell. It
// persists an inline job's trace, so a crash after this point resumes by
// loading the trace instead of retraining. Its done hook fans the shard
// tasks out.
func (m *Manager) prepareTask(j *job) *task {
	return &task{
		j:     j,
		stage: taskPrepare,
		shard: -1,
		run: func(ctx context.Context) error {
			shards, err := j.val.Prepare(ctx)
			if err != nil {
				return err
			}
			if tr := j.val.TrainedRun(); tr != nil && j.journal != nil && j.runID == "" {
				// Best-effort: an unsaved trace only costs a recovery a
				// deterministic retraining, never correctness.
				if serr := m.cfg.Store.SaveJobRun(j.id, tr.Run()); serr != nil {
					m.logJob("trace persist failed", j, "error", serr.Error())
				}
			}
			m.mu.Lock()
			j.shardsTotal = shards
			j.shardsLeft = shards
			m.mu.Unlock()
			return nil
		},
		done: func() {
			tasks := make([]*task, j.shardsTotal)
			for i := range tasks {
				tasks[i] = m.observeTask(j, i)
			}
			m.enqueueLocked(j, tasks...)
		},
	}
}

// observeTask evaluates one observation shard, journals its content
// digest, and — on a recovered job — verifies the re-executed shard
// re-derived exactly the observations the journal recorded, turning any
// determinism violation into a loud failure instead of a silently
// different report. A remote shard first preloads the worker's cells, so
// its local observation runs entirely from cache and its digest, journal
// record, and utility-call count are those of a local run. The last
// shard to finish enqueues the merge+completion stage.
func (m *Manager) observeTask(j *job, shard int) *task {
	t := &task{
		j:     j,
		stage: taskObserve,
		shard: shard,
	}
	t.run = func(ctx context.Context) error {
		if t.remote {
			if err := m.remoteObserve(ctx, j, shard); err != nil {
				return err
			}
		}
		if err := j.val.ObserveShard(ctx, shard); err != nil {
			return err
		}
		digest := j.val.ShardDigest(shard)
		if want, ok := j.wantDigests[shard]; ok && digest != "" && digest != want {
			return fmt.Errorf("service: recovered shard %d re-derived digest %s but the journal recorded %s: determinism violation", shard, digest, want)
		}
		return m.appendJournal(j, persist.JournalRecord{Type: persist.RecTask, Stage: taskObserve, Shard: shard, Digest: digest})
	}
	t.done = func() {
		j.shardsDone++
		j.shardsLeft--
		if j.shardsLeft == 0 {
			m.enqueueLocked(j, m.completeTask(j))
		}
	}
	return t
}

// remoteObserve pays one observation shard's cells through the dispatch
// coordinator: the shard's cell list is leased to a remote worker, which
// pays it against the shared run store's trace and returns a
// digest-verified batch of exactly those cells; absorbCells preloads it
// into the job's evaluator. Lost leases and worker failures return
// transient errors; the retry ladder re-executes the task, re-evaluating
// remote eligibility.
func (m *Manager) remoteObserve(ctx context.Context, j *job, shard int) error {
	lease, err := j.val.ShardCells(ctx, shard)
	if err != nil {
		return err
	}
	cells, err := m.cfg.Dispatcher.Execute(ctx, dispatch.Task{JobID: j.id, RunID: j.runID, Shard: shard, Cells: lease})
	if err != nil {
		return err
	}
	return m.absorbCells(j, cells)
}

// completeTask merges the shards in deterministic serial order and runs
// the matrix-completion solve. An adaptive pipeline's Complete may demand
// another wave of observation shards; the done hook then fans those out —
// indices continuing past the shards already run — and the last of them
// enqueues the next completeTask, looping until Complete returns 0 and
// the extraction stage runs.
func (m *Manager) completeTask(j *job) *task {
	var more int
	return &task{
		j:     j,
		stage: taskComplete,
		shard: -1,
		run: func(ctx context.Context) error {
			n, err := j.val.Complete(ctx)
			if err != nil {
				return err
			}
			// Merge-wave flush: every cell the wave's shards evaluated is
			// durable before the next wave (or the extraction) runs, so a
			// crash between waves warm-starts the recovery.
			if ferr := m.flushCells(j, cellStageMerge); ferr != nil {
				return ferr
			}
			more = n
			return nil
		},
		done: func() {
			if more == 0 {
				m.enqueueLocked(j, m.extractTask(j))
				return
			}
			start := j.shardsTotal
			j.shardsTotal += more
			j.shardsLeft += more
			tasks := make([]*task, more)
			for i := range tasks {
				tasks[i] = m.observeTask(j, start+i)
			}
			m.enqueueLocked(j, tasks...)
		},
	}
}

// extractTask produces the report, persists it, and finalizes the job. A
// persistence failure must not discard a successfully computed report: the
// job completes with the report resident in memory and the store error
// recorded as a warning on its status.
func (m *Manager) extractTask(j *job) *task {
	return &task{
		j:     j,
		stage: taskShapley,
		shard: -1,
		run: func(ctx context.Context) error {
			rep, err := j.val.Extract(ctx)
			if err != nil {
				return err
			}
			// Job-completion flush, before the report persists: a crash
			// here leaves the journal, and the re-run starts warm.
			if ferr := m.flushCells(j, cellStageExtract); ferr != nil {
				return ferr
			}
			var persistErr error
			if m.cfg.Store != nil {
				if serr := m.cfg.Store.SaveJobReport(j.id, rep); serr != nil {
					persistErr = fmt.Errorf("service: persisting report: %w", serr)
				}
			}
			if persistErr == nil && j.journal != nil {
				// The persisted report alone implies done on recovery, so
				// the journal is spent. If the report could not be
				// persisted the journal stays — a restart recomputes the
				// report a warning said would not survive.
				if rerr := m.cfg.Store.RemoveJournal(j.id); rerr != nil {
					m.logJob("journal remove failed", j, "error", rerr.Error())
				}
			}
			m.mu.Lock()
			j.report = rep
			j.persistErr = persistErr
			j.cacheStats = j.val.Stats()
			if rep.ObservationsBudget > rep.ObservationsUsed {
				m.met.obsSkipped.Add(int64(rep.ObservationsBudget - rep.ObservationsUsed))
			}
			m.mu.Unlock()
			return nil
		},
		done: func() {
			m.completeJobLocked(j)
		},
	}
}
