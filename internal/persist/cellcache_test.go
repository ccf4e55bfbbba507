package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

func cellBatch(t *testing.T, n int, cells ...utility.SnapshotCell) *utility.CellBatch {
	t.Helper()
	b := &utility.CellBatch{N: n, Cells: cells}
	b.Stamp()
	return b
}

func newCellStore(t *testing.T) *RunStore {
	t.Helper()
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestCellCacheRoundTrip(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	if store.HasCells(id) {
		t.Fatal("empty store claims a sidecar")
	}
	if got, err := store.ReadCells(id); err != nil || got != nil {
		t.Fatalf("cold read = (%v, %v), want (nil, nil)", got, err)
	}
	b1 := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	b2 := cellBatch(t, 4,
		utility.SnapshotCell{Round: 1, Mask: 0b11, Value: -0.25},
		utility.SnapshotCell{Round: 2, Mask: 0b101, Value: 1.5})
	if err := store.AppendCells(id, b1, "merge", nil); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendCells(id, b2, "extract", nil); err != nil {
		t.Fatal(err)
	}
	if !store.HasCells(id) {
		t.Fatal("sidecar missing after append")
	}
	got, err := store.ReadCells(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0].Cells) != 1 || len(got[1].Cells) != 2 {
		t.Fatalf("read back %d batches, want [1-cell, 2-cell]", len(got))
	}
	for i, b := range got {
		if err := b.Verify(); err != nil {
			t.Fatalf("batch %d failed digest verification after round trip: %v", i, err)
		}
	}
	if got[0].Cells[0].Value != 0.5 || got[1].Cells[1].Value != 1.5 {
		t.Fatal("cell values diverged across the round trip")
	}
}

// TestCellCacheAppendsAfterFormat1 pins the upgrade path: a sidecar an
// older daemon wrote in format 1 keeps growing in format 2, and reads
// back whole, in order, with every batch verifying.
func TestCellCacheAppendsAfterFormat1(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	old := pinnedCells()
	if err := os.WriteFile(filepath.Join(store.dir, id+cellsSuffix), cellsV1(t, old), 0o644); err != nil {
		t.Fatal(err)
	}
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 5, Mask: 0b1001, Value: 0.75})
	if err := store.AppendCells(id, b, "merge", nil); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadCells(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(old, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed sidecar read as %+v, want %+v", got, want)
	}
	for i, b := range got {
		if err := b.Verify(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

func TestCellCacheEmptyAppendIsNoop(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	if err := store.AppendCells(id, nil, "merge", nil); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendCells(id, &utility.CellBatch{N: 4}, "merge", nil); err != nil {
		t.Fatal(err)
	}
	if store.HasCells(id) {
		t.Fatal("empty appends created a sidecar")
	}
}

func TestCellCacheRejectsBadRunID(t *testing.T) {
	store := newCellStore(t)
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 1})
	if err := store.AppendCells("../evil", b, "merge", nil); err == nil {
		t.Fatal("append accepted a path-traversal run id")
	}
	if _, err := store.ReadCells("../evil"); err == nil {
		t.Fatal("read accepted a path-traversal run id")
	}
}

func TestCellCacheTornTailDropped(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	if err := store.AppendCells(id, b, "merge", nil); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a trailing fragment with no newline.
	path := filepath.Join(store.dir, id+cellsSuffix)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":4,"cells":[{"round":1,`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := store.ReadCells(id)
	if err != nil {
		t.Fatalf("torn tail must not be corruption: %v", err)
	}
	if len(got) != 1 || len(got[0].Cells) != 1 {
		t.Fatalf("read %d batches, want the 1 durable batch", len(got))
	}
}

func TestCellCacheCompleteBadLineIsCorrupt(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	if err := store.AppendCells(id, b, "merge", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.dir, id+cellsSuffix)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := store.ReadCells(id); !errors.Is(err, ErrCorruptCellCache) {
		t.Fatalf("err = %v, want ErrCorruptCellCache", err)
	}

	// Quarantine: the sidecar moves aside, the cache reads cold again.
	dst, err := store.QuarantineCells(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dst); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if store.HasCells(id) {
		t.Fatal("sidecar still present after quarantine")
	}
	if got, err := store.ReadCells(id); err != nil || got != nil {
		t.Fatalf("post-quarantine read = (%v, %v), want cold (nil, nil)", got, err)
	}
	// A fresh append starts a clean sidecar.
	if err := store.AppendCells(id, b, "merge", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := store.ReadCells(id); err != nil || len(got) != 1 {
		t.Fatalf("fresh sidecar read = (%d batches, %v), want 1 batch", len(got), err)
	}
}

func TestRemoveCellsAndDeleteRun(t *testing.T) {
	store := newCellStore(t)
	run := storeRun(t)
	const id = "run-0123456789abcdef"
	if err := store.SaveRun(id, run); err != nil {
		t.Fatal(err)
	}
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	if err := store.AppendCells(id, b, "merge", nil); err != nil {
		t.Fatal(err)
	}
	// Plant a quarantined copy too.
	if err := os.WriteFile(filepath.Join(store.dir, id+cellsCorruptSuffix), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteRun(id); err != nil {
		t.Fatal(err)
	}
	if store.HasCells(id) {
		t.Fatal("DeleteRun left the sidecar behind")
	}
	if _, err := os.Stat(filepath.Join(store.dir, id+cellsCorruptSuffix)); !os.IsNotExist(err) {
		t.Fatal("DeleteRun left the quarantined copy behind")
	}
	// Deleting again is not an error.
	if err := store.DeleteRun(id); err != nil {
		t.Fatal(err)
	}
}

func TestAppendCellsCrashBeforeLeavesNoBatch(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	hook := faultinject.CrashNth(faultinject.OpCellsBefore, "merge", 1)
	if err := store.AppendCells(id, b, "merge", hook); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	if store.HasCells(id) {
		t.Fatal("crash before the write still produced a sidecar")
	}
}

func TestAppendCellsCrashAfterKeepsBatch(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	hook := faultinject.CrashNth(faultinject.OpCellsAfter, "merge", 1)
	if err := store.AppendCells(id, b, "merge", hook); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("err = %v, want ErrCrash", err)
	}
	got, err := store.ReadCells(id)
	if err != nil || len(got) != 1 {
		t.Fatalf("crash after fsync lost the batch: (%d batches, %v)", len(got), err)
	}
}

func TestAppendCellsHookStages(t *testing.T) {
	store := newCellStore(t)
	const id = "run-0123456789abcdef"
	b := cellBatch(t, 4, utility.SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5})
	var points []faultinject.Point
	hook := func(p faultinject.Point) error {
		points = append(points, p)
		return nil
	}
	if err := store.AppendCells(id, b, "extract", hook); err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(points))
	}
	if points[0].Op != faultinject.OpCellsBefore || points[1].Op != faultinject.OpCellsAfter {
		t.Fatalf("hook ops = %s, %s", points[0].Op, points[1].Op)
	}
	for _, p := range points {
		if p.Stage != "extract" || p.JobID != id || p.Shard != -1 {
			t.Fatalf("hook point %+v, want stage extract, job %s, shard -1", p, id)
		}
	}
}

// warmSidecar returns batches shaped like one run's cell sidecar in the
// warm_mc benchmark workload: 5 batches of 2,720 distinct cells over 24
// clients and 30 rounds.
func warmSidecar() []*utility.CellBatch {
	g := rng.New(5)
	seen := make(map[[2]uint64]bool)
	var out []*utility.CellBatch
	for len(out) < 5 {
		b := &utility.CellBatch{N: 24}
		for len(b.Cells) < 2720 {
			round, mask := g.Intn(30), uint64(g.Int63())&(1<<24-1)
			if mask == 0 || seen[[2]uint64{uint64(round), mask}] {
				continue
			}
			seen[[2]uint64{uint64(round), mask}] = true
			b.Cells = append(b.Cells, utility.SnapshotCell{Round: round, Mask: mask, Value: g.Normal(1, 0.5)})
		}
		b.Stamp()
		out = append(out, b)
	}
	return out
}

// BenchmarkReadCells decodes one run's sidecar written in each format:
// v1 with cells as JSON objects, v2 (what AppendCells writes) with base64
// blocks.
func BenchmarkReadCells(b *testing.B) {
	batches := warmSidecar()
	store, err := NewRunStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.dir, "v1"+cellsSuffix), cellsV1(b, batches), 0o644); err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches {
		if err := store.AppendCells("v2", batch, "bench", nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, id := range []string{"v1", "v2"} {
		b.Run(id, func(b *testing.B) {
			info, err := os.Stat(filepath.Join(store.dir, id+cellsSuffix))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(info.Size())
			b.ReportAllocs()
			for b.Loop() {
				got, err := store.ReadCells(id)
				if err != nil || len(got) != len(batches) {
					b.Fatalf("read %d batches, %v", len(got), err)
				}
			}
		})
	}
}
