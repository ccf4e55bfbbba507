package persist

import (
	"time"

	"comfedsv/internal/fl"
)

// RunStore persists shared training runs under a directory, keyed by run
// ID. It is the disk half of the comfedsvd run registry: run IDs are
// content-addressed (a hash of the training spec, computed by the service
// layer), so the same spec always lands on the same file, a restarted
// daemon recovers every persisted run by scanning the directory, and
// re-registering an already-trained spec is a no-op. Writes are atomic and
// fsynced (temp file + sync + rename), so a crashed writer never leaves a
// truncated trace behind a valid name.
//
// A RunStore is safe for concurrent use as long as no two writers target
// the same run ID — which content addressing plus the service's
// train-once-per-ID discipline guarantees.
type RunStore struct {
	keyed
}

// NewRunStore opens (creating if needed) a run store rooted at dir.
func NewRunStore(dir string) (*RunStore, error) {
	k, err := openKeyed(dir, "run")
	if err != nil {
		return nil, err
	}
	return &RunStore{k}, nil
}

// SaveRun persists the training trace under the given run ID.
func (s *RunStore) SaveRun(id string, run *fl.Run) error { return s.saveRun(id, run) }

// LoadRun reads the training trace stored under the given run ID.
func (s *RunStore) LoadRun(id string) (*fl.Run, error) { return s.loadRun(id) }

// HasRun reports whether a trace exists for the given run ID.
func (s *RunStore) HasRun(id string) bool { return s.has(id, runSuffix) }

// ModTime returns the modification time of the stored trace — a stand-in
// for the training time when recovering runs from a previous process.
func (s *RunStore) ModTime(id string) (time.Time, error) { return s.modTime(id, runSuffix) }

// ListRuns returns the sorted IDs of every stored run.
func (s *RunStore) ListRuns() ([]string, error) { return s.list(runSuffix) }

// DeleteRun removes the stored trace along with the run's cell-cache
// sidecar and any quarantined copy — cached cells are meaningless without
// their trace. Missing files are not an error.
func (s *RunStore) DeleteRun(id string) error {
	return s.remove(id, runSuffix, cellsSuffix, cellsCorruptSuffix)
}
