package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comfedsv/internal/faultinject"
)

func newTestStore(t *testing.T) *JobStore {
	t.Helper()
	s, err := NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitRec(t *testing.T) JournalRecord {
	t.Helper()
	req, err := json.Marshal(map[string]any{"run_id": "run-abc"})
	if err != nil {
		t.Fatal(err)
	}
	return JournalRecord{Type: RecSubmit, Request: req}
}

func TestJournalAppendReadRoundTrip(t *testing.T) {
	s := newTestStore(t)
	j, err := s.OpenJournal("job-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []JournalRecord{
		submitRec(t),
		{Type: RecTask, Stage: "prepare", Shards: 4},
		{Type: RecTask, Stage: "observe", Shard: 2, Digest: "deadbeef"},
		{Type: RecTask, Stage: "complete", Shards: 2},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.ReadJournal("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	if got[2].Stage != "observe" || got[2].Shard != 2 || got[2].Digest != "deadbeef" {
		t.Fatalf("observe record mangled: %+v", got[2])
	}
	if string(got[0].Request) != string(recs[0].Request) {
		t.Fatalf("submit payload mangled: %s", got[0].Request)
	}
}

func TestJournalTornTrailingWriteIsDropped(t *testing.T) {
	s := newTestStore(t)
	j, err := s.OpenJournal("job-torn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(t)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Type: RecTask, Stage: "prepare", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial record with no newline.
	path := filepath.Join(s.dir, "job-torn.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"task","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := s.ReadJournal("job-torn")
	if err != nil {
		t.Fatalf("torn tail must not be corruption: %v", err)
	}
	if len(got) != 2 || got[1].Stage != "prepare" {
		t.Fatalf("want the 2 durable records, got %+v", got)
	}
}

func TestJournalCompleteGarbageLineIsCorrupt(t *testing.T) {
	s := newTestStore(t)
	j, err := s.OpenJournal("job-bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.dir, "job-bad.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Newline-terminated garbage is a durable-but-unreadable record:
	// corruption, not a torn tail.
	if _, err := f.WriteString("###garbage###\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.ReadJournal("job-bad"); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("want ErrCorruptJournal, got %v", err)
	}
}

func TestJournalTrailingDataIsCorrupt(t *testing.T) {
	// A complete record followed by anything but whitespace on its line is
	// not a record the journal wrote: corruption, not a valid submit.
	for _, tc := range []struct {
		tail    string
		corrupt bool
	}{
		{" trailing garbage", true},
		{` {"type":"task"}`, true},
		{"}", true},
		{" \t ", false},
	} {
		s := newTestStore(t)
		line := `{"type":"submit","time":"2026-01-02T03:04:05Z","request":{"run_id":"run-abc"}}` + tc.tail + "\n"
		if err := os.WriteFile(filepath.Join(s.dir, "job-tail.journal"), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := s.ReadJournal("job-tail")
		if tc.corrupt && !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("tail %q: want ErrCorruptJournal, got %d records, err %v", tc.tail, len(recs), err)
		}
		if !tc.corrupt && (err != nil || len(recs) != 1) {
			t.Fatalf("tail %q: want 1 record, got %d, err %v", tc.tail, len(recs), err)
		}
	}
}

func TestJournalMissingSubmitIsCorrupt(t *testing.T) {
	s := newTestStore(t)
	j, err := s.OpenJournal("job-nosubmit", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Type: RecTask, Stage: "prepare"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadJournal("job-nosubmit"); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("want ErrCorruptJournal for journal without submit, got %v", err)
	}
}

func TestJournalEmptyIsNotCorrupt(t *testing.T) {
	// A journal with no durable records is a process that died before its
	// first fsync — the job never durably existed. Recovery forgets it.
	s := newTestStore(t)
	_, err := s.OpenJournal("job-empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.ReadJournal("job-empty")
	if err != nil || recs != nil {
		t.Fatalf("empty journal must read as (nil, nil), got %v, %v", recs, err)
	}
}

func TestQuarantineJournal(t *testing.T) {
	s := newTestStore(t)
	j, err := s.OpenJournal("job-q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(t)); err != nil {
		t.Fatal(err)
	}
	dst, err := s.QuarantineJournal("job-q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(dst, ".journal.corrupt") {
		t.Fatalf("quarantine path %q lacks the .corrupt suffix", dst)
	}
	if s.HasJournal("job-q") {
		t.Fatal("quarantined journal still listed as live")
	}
	if _, err := os.Stat(dst); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	ids, err := s.ListJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("quarantined journal must not be listed, got %v", ids)
	}
}

func TestListJournalsAndRemove(t *testing.T) {
	s := newTestStore(t)
	for _, id := range []string{"b-job", "a-job"} {
		j, err := s.OpenJournal(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(submitRec(t)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := s.ListJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a-job" || ids[1] != "b-job" {
		t.Fatalf("ListJournals = %v, want sorted [a-job b-job]", ids)
	}
	if err := s.RemoveJournal("a-job"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveJournal("a-job"); err != nil {
		t.Fatalf("removing a missing journal must be a no-op, got %v", err)
	}
	if s.HasJournal("a-job") || !s.HasJournal("b-job") {
		t.Fatal("remove deleted the wrong journal")
	}
}

func TestJournalCrashBeforeAppendLosesRecord(t *testing.T) {
	s := newTestStore(t)
	hook := faultinject.CrashNth(faultinject.OpJournalBefore, "prepare", 1)
	j, err := s.OpenJournal("job-cb", hook)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(t)); err != nil {
		t.Fatal(err)
	}
	err = j.Append(JournalRecord{Type: RecTask, Stage: "prepare", Shards: 1})
	if !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	// The journal is dead: further appends fail without touching disk.
	if err := j.Append(JournalRecord{Type: RecTask, Stage: "observe"}); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("dead journal accepted an append: %v", err)
	}
	got, err := s.ReadJournal("job-cb")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != RecSubmit {
		t.Fatalf("crash-before must lose the record; journal holds %+v", got)
	}
}

func TestJournalCrashAfterAppendKeepsRecord(t *testing.T) {
	s := newTestStore(t)
	hook := faultinject.CrashNth(faultinject.OpJournalAfter, "prepare", 1)
	j, err := s.OpenJournal("job-ca", hook)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(t)); err != nil {
		t.Fatal(err)
	}
	err = j.Append(JournalRecord{Type: RecTask, Stage: "prepare", Shards: 1})
	if !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	got, err := s.ReadJournal("job-ca")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Stage != "prepare" {
		t.Fatalf("crash-after must keep the record; journal holds %+v", got)
	}
}

func TestDeleteJobRemovesJournalArtifacts(t *testing.T) {
	s := newTestStore(t)
	j, err := s.OpenJournal("job-del", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(submitRec(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveJobReport("job-del", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	// A quarantined sibling should go too.
	j2, err := s.OpenJournal("job-del2", nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(submitRec(t))
	if _, err := s.QuarantineJournal("job-del2", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob("job-del"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob("job-del2"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("DeleteJob left artifacts behind: %v", names)
	}
}
