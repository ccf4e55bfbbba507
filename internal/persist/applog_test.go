package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"comfedsv/internal/utility"
)

// The pinned logs in testdata/ were written by the journal and sidecar
// writers that predate the shared append-log core; these are the records
// they hold.
func pinnedJournal() []JournalRecord {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	ms := time.Millisecond
	return []JournalRecord{
		{Type: RecSubmit, Time: t0, Request: json.RawMessage(`{"options":{"monte_carlo_samples":64,"seed":7,"tolerance":0.5},"run_id":"run-golden"}`)},
		{Type: RecTask, Time: t0.Add(ms), Stage: "prepare", Shards: 4},
		{Type: RecTask, Time: t0.Add(2 * ms), Stage: "observe", Shard: 0, Digest: "0123456789abcdef"},
		{Type: RecTask, Time: t0.Add(3 * ms), Stage: "observe", Shard: 3, Digest: "fedcba9876543210"},
		{Type: RecTask, Time: t0.Add(4 * ms), Stage: "complete", Shards: 2},
		{Type: RecFail, Time: t0.Add(5 * ms), Error: `service: "quoted" <failure> & more`},
	}
}

func pinnedCells() []*utility.CellBatch {
	small := &utility.CellBatch{N: 4, Cells: []utility.SnapshotCell{
		{Round: 0, Mask: 0b1, Value: 0.5},
		{Round: 1, Mask: 0b1011, Value: -1.0 / 3},
		{Round: 2, Mask: 0b110, Value: 1e-300},
	}}
	small.Stamp()
	wide := utility.NewCellBatch(70, []utility.Cell{
		{Round: 0, Subset: utility.FromMembers(70, []int{0, 65})},
		{Round: 3, Subset: utility.FromMembers(70, []int{1, 2, 69})},
	}, []float64{0.1, -2.5e10})
	return []*utility.CellBatch{small, wide}
}

// TestPinnedLogFormat reads a journal and sidecars committed from earlier
// writers back to their records, and requires that appending the same
// records today produces byte-identical files: the journal as first
// pinned, the sidecar in format 2. A test copy of the format-1 sidecar
// writer must still reproduce the format-1 bytes.
func TestPinnedLogFormat(t *testing.T) {
	golden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	pinned, err := NewJobStore("testdata")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pinned.ReadJournal("job-golden")
	if err != nil {
		t.Fatal(err)
	}
	if want := pinnedJournal(); !reflect.DeepEqual(recs, want) {
		t.Fatalf("pinned journal read as\n%+v\nwant\n%+v", recs, want)
	}
	jobs := newTestStore(t)
	j, err := jobs.OpenJournal("job-golden", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(jobs.dir, "job-golden.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := golden("job-golden.journal"); !bytes.Equal(got, want) {
		t.Fatalf("re-appended journal differs from the pinned bytes:\n%s\nwant\n%s", got, want)
	}

	// The sidecar is pinned in both formats: run-golden.cells as the
	// format-1 writer left it, run-golden-v2.cells as AppendCells writes
	// it now. Both read back to the same batches.
	pinnedRuns, err := NewRunStore("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"run-golden", "run-golden-v2"} {
		batches, err := pinnedRuns.ReadCells(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := pinnedCells(); !reflect.DeepEqual(batches, want) {
			t.Fatalf("pinned sidecar %s read as %+v, want %+v", id, batches, want)
		}
	}
	if got, want := cellsV1(t, pinnedCells()), golden("run-golden.cells"); !bytes.Equal(got, want) {
		t.Fatalf("format-1 writer differs from the pinned bytes:\n%s\nwant\n%s", got, want)
	}
	runs := newCellStore(t)
	for i, b := range pinnedCells() {
		if err := runs.AppendCells("run-golden-v2", b, []string{"merge", "extract"}[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err = os.ReadFile(filepath.Join(runs.dir, "run-golden-v2.cells"))
	if err != nil {
		t.Fatal(err)
	}
	if want := golden("run-golden-v2.cells"); !bytes.Equal(got, want) {
		t.Fatalf("appended sidecar differs from the pinned bytes:\n%s\nwant\n%s", got, want)
	}
}

// cellsV1 is the format-1 sidecar writer: one JSON line per batch, with
// its cells as an array of objects.
func cellsV1(t testing.TB, batches []*utility.CellBatch) []byte {
	t.Helper()
	var out []byte
	for _, b := range batches {
		line, err := json.Marshal(struct {
			N      int                    `json:"n"`
			Cells  []utility.SnapshotCell `json:"cells"`
			Digest string                 `json:"digest"`
		}{b.N, b.Cells, b.Digest})
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzReadLogs feeds arbitrary bytes to both durable log decoders. Neither
// may panic or fail with anything but its corruption sentinel, and every
// log they accept must survive a re-append: the records it re-reads to
// encode exactly like the ones first decoded.
func FuzzReadLogs(f *testing.F) {
	dir := f.TempDir()
	jobs, err := NewJobStore(filepath.Join(dir, "jobs"))
	if err != nil {
		f.Fatal(err)
	}
	runs, err := NewRunStore(filepath.Join(dir, "runs"))
	if err != nil {
		f.Fatal(err)
	}
	encode := func(t *testing.T, v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("decoded records do not re-marshal: %v", err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		os.Remove(filepath.Join(jobs.dir, "out.journal"))
		os.Remove(filepath.Join(runs.dir, "out.cells"))
		if err := os.WriteFile(filepath.Join(jobs.dir, "in.journal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(runs.dir, "in.cells"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		recs, err := jobs.ReadJournal("in")
		if err != nil && !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("ReadJournal: unexpected error %v", err)
		}
		if err == nil && len(recs) > 0 {
			// A raw request re-encodes compacted and a parsed time zone
			// is a fresh *Location, so equality is on the encoding.
			j, err := jobs.OpenJournal("out", nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := j.Append(r); err != nil {
					t.Fatalf("re-appending a decoded record: %v", err)
				}
			}
			again, err := jobs.ReadJournal("out")
			if err != nil {
				t.Fatalf("re-appended journal does not read back: %v", err)
			}
			if a, b := encode(t, recs), encode(t, again); !bytes.Equal(a, b) {
				t.Fatalf("journal round trip changed the records:\n%s\n%s", a, b)
			}
		}

		batches, err := runs.ReadCells("in")
		if err != nil && !errors.Is(err, ErrCorruptCellCache) {
			t.Fatalf("ReadCells: unexpected error %v", err)
		}
		if err == nil {
			// Appending skips batches without cells, so those have
			// nothing to round-trip.
			var kept []*utility.CellBatch
			for _, b := range batches {
				if b == nil || len(b.Cells) == 0 {
					continue
				}
				if err := runs.AppendCells("out", b, "fuzz", nil); err != nil {
					t.Fatalf("re-appending a decoded batch: %v", err)
				}
				kept = append(kept, b)
			}
			again, err := runs.ReadCells("out")
			if err != nil || !reflect.DeepEqual(again, kept) {
				t.Fatalf("sidecar batches %+v read back as %+v, %v", kept, again, err)
			}
		}
	})
}
