package persist

import (
	"errors"
	"fmt"
	"io/fs"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/utility"
)

// ErrCorruptCellCache reports a cell-cache sidecar whose decoded prefix is
// unusable: a complete (newline-terminated) batch line that does not
// parse. A torn trailing line with no newline is NOT corruption — that is
// exactly what a crash mid-append leaves behind, and a read drops it and
// returns the durable prefix. Digest mismatches inside a well-formed batch
// are the evaluator's to detect at preload time; either way the caller's
// remedy is QuarantineCells and a cold start, never a failed job.
var ErrCorruptCellCache = errors.New("persist: corrupt cell cache")

// Cell-cache sidecar suffixes. Each run may carry a `<runID>.cells` file
// next to its trace: an append-only log of utility.CellBatch JSON lines,
// the durable half of the run-scoped utility-cell cache. A sidecar begun
// by an earlier release holds format-1 lines, which still read.
const (
	cellsSuffix        = ".cells"
	cellsCorruptSuffix = ".cells.corrupt"
)

var cellsLog = appendLog{
	name:          "cell cache",
	suffix:        cellsSuffix,
	corruptSuffix: cellsCorruptSuffix,
	before:        faultinject.OpCellsBefore,
	after:         faultinject.OpCellsAfter,
	errCorrupt:    ErrCorruptCellCache,
}

// AppendCells durably appends one batch of evaluated cells to run id's
// sidecar: marshal to a single JSON line (CellBatch's format 2, cells as
// one base64 block), one write, fsync. The hook, if non-nil, is consulted
// before and after the write (faultinject OpCellsBefore / OpCellsAfter —
// the crash points of the sidecar chaos sweep) with the given stage naming
// the flush boundary; pass nil in production. An empty or nil batch is a
// no-op.
func (s *RunStore) AppendCells(id string, b *utility.CellBatch, stage string, hook faultinject.Hook) error {
	if b == nil || len(b.Cells) == 0 {
		return nil
	}
	return s.appendLine(cellsLog, id, b, hook, faultinject.Point{Stage: stage, Shard: -1, JobID: id})
}

// ReadCells decodes run id's cell-cache sidecar into its durable batches.
// A missing sidecar returns (nil, nil) — a cold cache, not an error. A
// torn trailing line (a crash mid-append) is dropped silently; any
// complete line that fails to decode returns ErrCorruptCellCache so the
// caller can quarantine the file and degrade to cold-cache evaluation.
// Batch digests are NOT verified here — the evaluator's Preload does that
// against the run it actually serves.
func (s *RunStore) ReadCells(id string) ([]*utility.CellBatch, error) {
	batches, err := readLines(s.keyed, cellsLog, id, decodeBatch)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return batches, err
}

// PreloadCells warm-starts an evaluator from run id's sidecar: it hands
// each durable batch, in order, to install (the evaluator's Preload) and
// returns the cells added. A cache never fails its caller, so a sidecar
// that does not decode, or a batch install rejects, is quarantined (hook
// as in QuarantineCells) while the batches installed before the damage
// stay; the returned error then names the cause and the quarantine path.
func (s *RunStore) PreloadCells(id string, install func(*utility.CellBatch) (int, error), hook faultinject.Hook) (int, error) {
	batches, err := s.ReadCells(id)
	added := 0
	for _, b := range batches {
		n, perr := install(b)
		if perr != nil {
			err = perr
			break
		}
		added += n
	}
	if err == nil {
		return added, nil
	}
	dst, qerr := s.QuarantineCells(id, hook)
	if qerr != nil {
		dst = "(rename failed: " + qerr.Error() + ")"
	}
	return added, fmt.Errorf("persist: cell cache quarantined to %s: %w", dst, err)
}

// decodeBatch decodes one sidecar line. The batch's own decoder checks the
// whole line, so it runs once over the bytes rather than under a second,
// generic JSON pass.
func decodeBatch(line []byte) (*utility.CellBatch, error) {
	b := new(utility.CellBatch)
	return b, b.UnmarshalJSON(line)
}

// HasCells reports whether a cell-cache sidecar exists for run id.
func (s *RunStore) HasCells(id string) bool { return s.has(id, cellsSuffix) }

// QuarantineCells renames run id's sidecar to its .corrupt name so a
// damaged cache stops poisoning every warm start but stays available for
// inspection, then fsyncs the directory. The hook, if non-nil, is
// consulted between the rename and the directory sync
// (faultinject.OpQuarantine, JobID carrying the run ID); pass nil in
// production. The next writer starts a fresh sidecar; the next reader
// sees a cold cache. It returns the quarantine path.
func (s *RunStore) QuarantineCells(id string, hook faultinject.Hook) (string, error) {
	return s.quarantine(cellsLog, id, hook)
}
