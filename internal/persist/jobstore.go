package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"comfedsv/internal/fl"
)

// JobStore persists per-job artifacts — training runs and valuation
// reports — under a directory, keyed by job ID. It is the disk-backed half
// of the comfedsvd result store: the service keeps finished reports in
// memory and mirrors them here so completed jobs survive restarts. Writes
// are atomic (temp file + rename), so a crashed writer never leaves a
// half-written artifact behind a valid name.
//
// A JobStore is safe for concurrent use by multiple goroutines as long as
// no two writers target the same job ID, which the service's one-worker-
// per-job discipline guarantees.
type JobStore struct {
	keyed
}

const (
	runSuffix    = ".run.json"
	reportSuffix = ".report.json"
)

// NewJobStore opens (creating if needed) a job store rooted at dir.
func NewJobStore(dir string) (*JobStore, error) {
	k, err := openKeyed(dir, "job")
	if err != nil {
		return nil, err
	}
	return &JobStore{k}, nil
}

// SaveJobRun persists the training trace of job id.
func (s *JobStore) SaveJobRun(id string, run *fl.Run) error { return s.saveRun(id, run) }

// LoadJobRun reads the training trace of job id.
func (s *JobStore) LoadJobRun(id string) (*fl.Run, error) { return s.loadRun(id) }

// SaveJobReport persists a valuation report for job id. The report may be
// any JSON-encodable value; the service stores comfedsv.Report. Go's JSON
// encoder emits shortest-round-trip float literals, so valuations survive
// a save/load cycle bit-identical.
func (s *JobStore) SaveJobReport(id string, report any) error {
	return s.writeFile(id, reportSuffix, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fmt.Errorf("persist: encoding report: %w", err)
		}
		return nil
	})
}

// LoadJobReport reads the report of job id into out.
func (s *JobStore) LoadJobReport(id string, out any) error {
	return s.readFile(id, reportSuffix, func(f *os.File) error {
		if err := json.NewDecoder(f).Decode(out); err != nil {
			return fmt.Errorf("persist: decoding report: %w", err)
		}
		return nil
	})
}

// ReportModTime returns the modification time of job id's stored report —
// a stand-in for submission/completion times when recovering jobs from a
// previous process.
func (s *JobStore) ReportModTime(id string) (time.Time, error) { return s.modTime(id, reportSuffix) }

// HasJobReport reports whether a report exists for job id.
func (s *JobStore) HasJobReport(id string) bool { return s.has(id, reportSuffix) }

// ListJobReports returns the sorted IDs of all jobs with a stored report.
func (s *JobStore) ListJobReports() ([]string, error) { return s.list(reportSuffix) }

// DeleteJob removes every artifact stored for job id — trace, report,
// journal, and any quarantined journal. Missing artifacts are not an
// error.
func (s *JobStore) DeleteJob(id string) error {
	return s.remove(id, runSuffix, reportSuffix, journalSuffix, corruptSuffix)
}
