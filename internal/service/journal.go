package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"comfedsv"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
)

// digestFormat is the observe-digest scheme new submit records declare:
// an observe record's digest is the digest of the shard's canonical
// utility.CellBatch, the token a remote worker's batch for the shard
// carries, where a shard is a contiguous chunk of its wave's new cells —
// cells no earlier wave of the job listed — and wave 0's list holds
// FedSV's cells too. Format 3 cut the same lists, but a later wave
// re-listed cells earlier waves had paid, so its later-wave shards held
// other cells under other indices. Format 2 digests are of batches over
// the plan's cells alone, cut by permutation slice or round range;
// journals without the marker hold digests of an earlier (round, column)
// hash. No current shard re-derives any of them.
const digestFormat = 4

// journalRequest is the submit record's payload: the full effective job
// request — datasets or run reference plus the options after daemon
// defaults were applied. Journaling the *effective* options (not the
// submitted ones) pins the recovery contract: a daemon restarted with
// different default flags re-executes the job exactly as the original
// daemon would have, so the resumed report is byte-identical.
type journalRequest struct {
	RunID   string            `json:"run_id,omitempty"`
	Clients []comfedsv.Client `json:"clients,omitempty"`
	Test    comfedsv.Client   `json:"test,omitempty"`
	Options comfedsv.Options  `json:"options"`
}

// appendJournal durably records one journal entry for a job. Journaling
// is best-effort — a disk hiccup must not fail a job whose computation
// is healthy — with one exception: a simulated crash
// (faultinject.ErrCrash) is returned to the caller so the task fails
// like the process died, which is exactly what the chaos suites are
// simulating. Callers must not hold m.mu (Append fsyncs).
func (m *Manager) appendJournal(j *job, rec persist.JournalRecord) error {
	jr := j.journal
	if jr == nil {
		return nil
	}
	rec.Time = m.clock.Now()
	err := jr.Append(rec)
	if err == nil {
		return nil
	}
	if errors.Is(err, faultinject.ErrCrash) {
		return err
	}
	m.logJob("journal append failed", j, "error", err.Error())
	return nil
}

// sealJournal finishes a terminal job's journal according to how the
// job ended. Idempotent: the terminal transition stashes the journal
// exactly once. Callers must not hold m.mu.
//
//	simulated crash    freeze the file as the dying process left it —
//	                   restart resumes the job from it
//	done               nothing; a successfully persisted report already
//	                   removed the file, a persistence failure leaves it
//	                   so a restart recomputes the report
//	user cancel        remove; the user does not want a restart to
//	                   resurrect the job
//	shutdown cancel    keep untouched; restart resumes the job
//	fatal failure      append a fail record so the failure — not a
//	                   silent re-run — survives the restart
func (m *Manager) sealJournal(j *job) {
	m.mu.Lock()
	jr := j.sealJ
	j.sealJ = nil
	state := j.state
	jerr := j.err
	userCancel := j.userCancelled
	m.mu.Unlock()
	if jr == nil {
		return
	}
	switch {
	case errors.Is(jerr, faultinject.ErrCrash):
	case state == StateDone:
	case userCancel:
		if m.cfg.Store != nil {
			if err := m.cfg.Store.RemoveJournal(j.id); err != nil {
				m.logJob("journal remove failed", j, "error", err.Error())
			}
		}
	case errors.Is(jerr, ErrCancelled):
	default:
		msg := "unknown failure"
		if jerr != nil {
			msg = jerr.Error()
		}
		if err := jr.Append(persist.JournalRecord{Type: persist.RecFail, Time: m.clock.Now(), Error: msg}); err != nil {
			m.logJob("journal fail record failed", j, "error", err.Error())
		}
	}
}

// recoverJournals replays the journals a previous process left behind,
// re-registering their jobs: a journal whose report already exists is
// stale bookkeeping and is removed; an empty journal is a process that
// died before its first fsync and is forgotten; a corrupt journal is
// quarantined (renamed *.journal.corrupt) and its job registered as
// failed with the reason — startup never aborts on one damaged file; a
// journal ending in a fail record re-registers the failure; everything
// else is an in-flight job, re-queued for deterministic re-execution
// from its journaled request. Called from NewManager before the worker
// pool starts, so no locking is needed.
func (m *Manager) recoverJournals() error {
	ids, err := m.cfg.Store.ListJournals()
	if err != nil {
		return fmt.Errorf("service: scanning journals: %w", err)
	}
	for _, id := range ids {
		if _, exists := m.jobs[id]; exists {
			// The report landed before the crash; the journal is stale.
			m.cfg.Store.RemoveJournal(id)
			continue
		}
		recs, rerr := m.cfg.Store.ReadJournal(id)
		if rerr != nil {
			m.quarantineJob(id, rerr)
			continue
		}
		if len(recs) == 0 {
			m.cfg.Store.RemoveJournal(id)
			continue
		}
		var req journalRequest
		if derr := json.Unmarshal(recs[0].Request, &req); derr != nil {
			m.quarantineJob(id, fmt.Errorf("%w: undecodable submit record: %v", persist.ErrCorruptJournal, derr))
			continue
		}
		m.resumeJob(id, req, recs)
	}
	return nil
}

// quarantineJob renames a damaged journal out of the replay path and
// registers its job as failed with a clear reason.
func (m *Manager) quarantineJob(id string, cause error) {
	dst, qerr := m.cfg.Store.QuarantineJournal(id, m.cfg.FaultHook)
	if qerr != nil {
		m.logRun("journal quarantine failed", id, "error", qerr.Error())
		dst = "(rename failed)"
	}
	now := m.clock.Now()
	j := &job{
		id:        id,
		state:     StateFailed,
		err:       fmt.Errorf("service: job journal corrupt, quarantined to %s: %w", dst, cause),
		submitted: now,
		finished:  now,
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.logJob("job quarantined", j, "error", cause.Error())
}

// resumeJob re-registers one journaled job from its decoded submit
// record plus the task records that made it to disk before the crash.
func (m *Manager) resumeJob(id string, req journalRequest, recs []persist.JournalRecord) {
	now := m.clock.Now()
	submitted := recs[0].Time
	if submitted.IsZero() {
		submitted = now
	}

	var failRec *persist.JournalRecord
	digests := make(map[int]string)
	for i := range recs[1:] {
		rec := &recs[1+i]
		switch rec.Type {
		case persist.RecFail:
			failRec = rec
		case persist.RecTask:
			if rec.Stage == taskObserve && rec.Digest != "" {
				digests[rec.Shard] = rec.Digest
			}
		}
	}

	// A journal without the current marker holds digests no shard
	// re-derives. Re-execution is still deterministic, so the job resumes;
	// only the cross-check of its journaled shards is lost.
	ignored := 0
	if recs[0].DigestFormat != digestFormat {
		ignored = len(digests)
		digests = map[int]string{}
	}

	if failRec != nil {
		// The failure itself is the durable outcome; the journal stays
		// so the next restart re-registers it identically.
		j := &job{
			id:        id,
			state:     StateFailed,
			err:       fmt.Errorf("service: recovered failed job: %s", failRec.Error),
			runID:     req.RunID,
			submitted: submitted,
			finished:  now,
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:          id,
		req:         Request{RunID: req.RunID, Clients: req.Clients, Test: req.Test, Options: req.Options},
		runID:       req.RunID,
		state:       StateQueued,
		ctx:         ctx,
		cancel:      cancel,
		submitted:   submitted,
		recovered:   true,
		wantDigests: digests,
	}
	j.opts = m.instrumentOptions(j, req.Options)
	if ignored > 0 {
		m.logJob("journal observe digests predate the current digest format; resuming without comparing them", j,
			"digest_format", recs[0].DigestFormat, "ignored_digests", ignored)
	}

	if req.RunID != "" {
		e, ok := m.runs[req.RunID]
		if !ok {
			cancel()
			j.state = StateFailed
			j.err = fmt.Errorf("service: cannot resume job: shared run %s no longer exists", req.RunID)
			j.finished = now
			m.jobs[id] = j
			m.order = append(m.order, id)
			return
		}
		e.refs++
	}

	if jr, jerr := m.cfg.Store.OpenJournal(id, m.cfg.FaultHook); jerr == nil {
		j.journal = jr
	} else {
		m.logJob("journal reopen failed", j, "error", jerr.Error())
	}
	j.val = m.newValuation(j)
	m.queued++ // recovered work is never turned away, even past QueueDepth
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.enqueueLocked(j, m.prepareTask(j))
	m.met.jobsRecovered.Inc()
	m.logJob("job recovered", j, "journaled_shards", len(digests))
}

// instrumentOptions wires the manager's progress and stage-timing hooks
// into a job's effective options — shared by Submit and journal
// recovery so a resumed job reports progress exactly like a fresh one.
func (m *Manager) instrumentOptions(j *job, opts comfedsv.Options) comfedsv.Options {
	prev := opts.OnProgress
	opts.OnProgress = func(p comfedsv.Progress) {
		m.mu.Lock()
		j.progress = p
		m.mu.Unlock()
		if prev != nil {
			prev(p)
		}
	}
	m.observeStageTimes(&opts)
	return opts
}

// openSubmitJournal creates a fresh job's journal and fsyncs its submit
// record — the full effective request — before the job's first task can
// run. Best-effort: a store that cannot journal degrades the job to
// non-recoverable instead of rejecting it. The returned error is only
// non-nil for a simulated crash, which Submit surfaces as a job failure.
func (m *Manager) openSubmitJournal(j *job) error {
	jr, err := m.cfg.Store.OpenJournal(j.id, m.cfg.FaultHook)
	if err != nil {
		m.logJob("journal open failed", j, "error", err.Error())
		return nil
	}
	payload, err := json.Marshal(journalRequest{
		RunID:   j.req.RunID,
		Clients: j.req.Clients,
		Test:    j.req.Test,
		Options: j.opts,
	})
	if err != nil {
		m.logJob("journal submit encode failed", j, "error", err.Error())
		return nil
	}
	aerr := jr.Append(persist.JournalRecord{Type: persist.RecSubmit, Time: m.clock.Now(), DigestFormat: digestFormat, Request: payload})
	if errors.Is(aerr, faultinject.ErrCrash) {
		j.journal = jr // the dead journal freezes the file
		return aerr
	}
	if aerr != nil {
		m.logJob("journal submit append failed", j, "error", aerr.Error())
		return nil
	}
	j.journal = jr
	return nil
}
