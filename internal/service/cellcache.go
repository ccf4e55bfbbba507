package service

import (
	"errors"
	"fmt"

	"comfedsv"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/utility"
)

// The persistent utility-cell cache: every shared run may carry a
// `<runID>.cells` sidecar in the RunStore — an append-only log of
// evaluated utility cells. A run's evaluator is warm-started from the
// sidecar when the trace becomes available (freshly trained or recovered
// from disk), newly evaluated cells are flushed back at the merge-wave
// and job-completion boundaries, and a remote shard's cell batch is
// appended when it adds anything. Cells are pure functions of the
// training trace, so a warm cache returns exactly the values a cold one
// would recompute — reports stay byte-identical; only the wall-clock
// changes.
//
// The cache is strictly an optimization, so every failure path degrades
// rather than fails: an unreadable or unverifiable sidecar is
// quarantined and the run proceeds cold; an append failure is logged and
// the job continues. The one exception mirrors appendJournal: a
// simulated crash (faultinject.ErrCrash) is surfaced so the task dies
// like the process did — the seam the sidecar chaos sweep drives.

// Cell-cache flush-boundary stage names, recorded in faultinject points.
const (
	cellStageMerge   = "merge"   // completeTask, after a merge wave
	cellStageExtract = "extract" // extractTask, before the report persists
	cellStageWorker  = "worker"  // remoteObserve, absorbing a worker batch
)

// preloadCells warm-starts a run's evaluator from its sidecar. Called
// without m.mu held, by the goroutine that owns the trace's publication
// (trainRun, or runTrained's loadOnce) — so no job can be evaluating
// against tr yet, but the path is safe either way: Preload only installs
// absent cells. Every failure degrades to a cold cache: a damaged
// sidecar is quarantined and counted (batches that verified before the
// damage stay installed — they are known-good) and the run proceeds.
func (m *Manager) preloadCells(id string, tr *comfedsv.TrainedRun) {
	if m.cfg.RunStore == nil || tr == nil {
		return
	}
	added, err := m.cfg.RunStore.PreloadCells(id, tr.PreloadCells, m.cfg.FaultHook)
	m.met.cellsPreloaded.Add(int64(added))
	if err != nil {
		m.met.cellsCorrupt.Inc()
		m.logRun("cell cache corrupt, quarantined", id, "error", err.Error())
	}
	if added > 0 {
		m.logRun("cell cache preloaded", id, "cells", added)
	}
}

// flushCells drains the cells a run-backed job's evaluator newly
// computed and appends them durably to the run's sidecar. Best-effort
// like appendJournal — a disk hiccup is logged and the job continues —
// except for faultinject.ErrCrash, which is returned so the task fails
// like process death. Callers must not hold m.mu (AppendCells fsyncs).
func (m *Manager) flushCells(j *job, stage string) error {
	if j.runID == "" || m.cfg.RunStore == nil {
		return nil
	}
	tr := j.val.TrainedRun()
	if tr == nil {
		return nil
	}
	b := tr.ExportNewCells()
	if b == nil {
		return nil
	}
	if err := m.cfg.RunStore.AppendCells(j.runID, b, stage, m.cfg.FaultHook); err != nil {
		if errors.Is(err, faultinject.ErrCrash) {
			return err
		}
		m.logJob("cell cache append failed", j, "stage", stage, "error", err.Error())
		return nil
	}
	m.met.cellsPersisted.Add(int64(len(b.Cells)))
	return nil
}

// absorbCells preloads a remote shard's cell batch into the job's run
// evaluator — so the shard's local observation that follows runs entirely
// from cache — and, when the batch contributed anything new, appends it
// to the sidecar (a leased run is always persisted, so the run store is
// there) so the warmth survives a restart. The preload checks every cell
// against the actual run (dispatch could verify only the digest); a
// rejected batch fails the shard. An append failure is best-effort except
// for a simulated crash, mirroring flushCells.
func (m *Manager) absorbCells(j *job, b *utility.CellBatch) error {
	added, err := j.val.TrainedRun().PreloadCells(b)
	if err != nil {
		return fmt.Errorf("service: remote cell batch rejected: %w", err)
	}
	if added == 0 {
		// Everything in the batch is already cached locally (durable, or
		// pending a flush of its own); appending would only bloat the
		// sidecar with duplicates.
		return nil
	}
	m.met.cellsPreloaded.Add(int64(added))
	if err := m.cfg.RunStore.AppendCells(j.runID, b, cellStageWorker, m.cfg.FaultHook); err != nil {
		if errors.Is(err, faultinject.ErrCrash) {
			return err
		}
		m.logJob("cell cache append failed", j, "stage", cellStageWorker, "error", err.Error())
		return nil
	}
	m.met.cellsPersisted.Add(int64(len(b.Cells)))
	return nil
}
