package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"comfedsv/internal/faultinject"
)

// Journal record types and file suffixes.
const (
	journalSuffix = ".journal"
	corruptSuffix = ".journal.corrupt"

	// RecSubmit is a journal's first record: the full job request
	// (datasets or run reference plus effective options), everything a
	// restarted daemon needs to re-derive the job deterministically.
	RecSubmit = "submit"
	// RecTask records one executed observation shard (stage "observe")
	// with its digest. Journals written by older daemons also hold
	// prepare, complete and shapley task records; they still decode, and
	// recovery ignores them.
	RecTask = "task"
	// RecFail records a terminal job failure, so a failed job survives a
	// restart as failed instead of silently re-running.
	RecFail = "fail"
)

// ErrCorruptJournal reports a journal whose decoded prefix is unusable: a
// complete (newline-terminated) record that does not parse, or a missing
// or malformed leading submit record. A torn trailing record with no
// newline is NOT corruption — that is exactly what a crash mid-append
// leaves behind, and recovery drops it and resumes from the last durable
// record.
var ErrCorruptJournal = errors.New("persist: corrupt job journal")

// JournalRecord is one append-only entry in a job's task journal.
type JournalRecord struct {
	Type string    `json:"type"`
	Time time.Time `json:"time,omitempty"`
	// Stage is the task's stage name for RecTask records: "observe" in
	// new journals, any scheduler stage in older ones.
	Stage string `json:"stage,omitempty"`
	// Shard is the observation shard index of an observe task record.
	Shard int `json:"shard,omitempty"`
	// Shards is read only from older journals, whose prepare and complete
	// records carried a shard count; it stays so the strict decoder
	// accepts them. New journals never set it.
	Shards int `json:"shards,omitempty"`
	// Digest is the content hash of an observation shard's evaluated
	// cells — recovery re-executes the shard (observation is a pure
	// function of the journaled request) and verifies the re-derived
	// cells hash identically, turning any determinism violation into a
	// loud failure instead of a silently different report.
	Digest string `json:"digest,omitempty"`
	// DigestFormat on a RecSubmit record names the scheme of the job's
	// observe digests, so recovery compares only digests it can
	// re-derive. Absent (0) marks a journal written before the marker
	// existed.
	DigestFormat int `json:"digest_format,omitempty"`
	// Error is the failure reason on RecFail records.
	Error string `json:"error,omitempty"`
	// Request is the service-defined request payload on RecSubmit records.
	Request json.RawMessage `json:"request,omitempty"`
}

var journalLog = appendLog{
	name:          "journal",
	suffix:        journalSuffix,
	corruptSuffix: corruptSuffix,
	before:        faultinject.OpJournalBefore,
	after:         faultinject.OpJournalAfter,
	errCorrupt:    ErrCorruptJournal,
}

// Journal is one job's append-only task journal: each Append marshals a
// record to a single JSON line, writes it in one call, and fsyncs before
// returning, so every acknowledged record survives a crash and a torn
// write can only ever be the trailing line. A Journal holds no file
// handle between appends. It is safe for concurrent use; the service
// serializes appends per task anyway.
type Journal struct {
	mu    sync.Mutex
	store *JobStore
	id    string
	hook  faultinject.Hook
	dead  error // non-nil after a simulated crash: appends are dropped
}

// OpenJournal creates job id's journal if it does not exist and returns
// its appender. The hook, if non-nil, is consulted before and after every
// append — the crash-point seam of the chaos suites; pass nil in
// production.
func (s *JobStore) OpenJournal(id string, hook faultinject.Hook) (*Journal, error) {
	path, err := s.path(id, journalSuffix)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening journal: %w", err)
	}
	f.Close()
	return &Journal{store: s, id: id, hook: hook}, nil
}

// Append durably appends one record: marshal, single write, fsync. After
// a simulated crash (the fault hook returned faultinject.ErrCrash) the
// journal is dead — the on-disk state is frozen as the dying process
// left it, and every subsequent Append returns the crash error without
// touching the file.
func (j *Journal) Append(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead != nil {
		return j.dead
	}
	stage := rec.Type
	if rec.Type == RecTask && rec.Stage != "" {
		// Task records expose the pipeline stage, the coordinate chaos
		// suites target crashes by; submit and fail records keep the
		// record type.
		stage = rec.Stage
	}
	pt := faultinject.Point{Stage: stage, Shard: rec.Shard, JobID: j.id}
	err := j.store.appendLine(journalLog, j.id, rec, j.hook, pt)
	if errors.Is(err, faultinject.ErrCrash) {
		j.dead = err
	}
	return err
}

// ReadJournal decodes job id's journal. A torn trailing line (no
// terminating newline — a crash mid-append) is dropped silently; any
// complete line that fails to decode, or a non-empty journal whose first
// record is not a valid submit record, returns ErrCorruptJournal so the
// caller can quarantine the file. A journal with no durable records at
// all returns (nil, nil): that is a process that died before its first
// fsync — the job never durably existed — not corruption.
func (s *JobStore) ReadJournal(id string) ([]JournalRecord, error) {
	recs, err := readLines(s.keyed, journalLog, id, decodeStrict[JournalRecord])
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	if recs[0].Type != RecSubmit || len(recs[0].Request) == 0 {
		return nil, fmt.Errorf("%w: %s does not start with a submit record", ErrCorruptJournal, id)
	}
	return recs, nil
}

// ListJournals returns the sorted IDs of every job with a journal on
// disk — the in-flight jobs a previous process left behind.
func (s *JobStore) ListJournals() ([]string, error) { return s.list(journalSuffix) }

// QuarantineJournal renames job id's journal to its .corrupt name so a
// damaged file stops being replayed on every startup but stays available
// for inspection, then fsyncs the directory. The hook, if non-nil, is
// consulted between the rename and the directory sync
// (faultinject.OpQuarantine); pass nil in production. It returns the
// quarantine path.
func (s *JobStore) QuarantineJournal(id string, hook faultinject.Hook) (string, error) {
	return s.quarantine(journalLog, id, hook)
}

// RemoveJournal deletes job id's journal and fsyncs the directory so the
// deletion is durable — a resurrected journal would make a restarted
// daemon replay a job that already finished. A missing file is not an
// error.
func (s *JobStore) RemoveJournal(id string) error { return s.remove(id, journalSuffix) }

// HasJournal reports whether a journal exists for job id.
func (s *JobStore) HasJournal(id string) bool { return s.has(id, journalSuffix) }
