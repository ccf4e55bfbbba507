package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
)

// reportBytes reads a job's persisted report file verbatim — the
// byte-identity oracle of the crash-recovery suites.
func reportBytes(t *testing.T, dir, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, id+".report.json"))
	if err != nil {
		t.Fatalf("reading persisted report: %v", err)
	}
	return b
}

// runToCompletion submits req on a fresh store-backed manager with no
// faults and returns the persisted report bytes.
func runToCompletion(t *testing.T, req Request) []byte {
	t.Helper()
	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Workers: 2, Store: store})
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("baseline job finished %s (%s)", st.State, st.Error)
	}
	return reportBytes(t, dir, id)
}

// crashEverywhere sweeps every journal hook point of req's execution: for
// n = 1, 2, ... it runs the job with a simulated process death at the nth
// journal point, abandons the dead manager, recovers a fresh one over the
// same store, and requires the finished report to be byte-identical to an
// uninterrupted run. The sweep ends at the first n no crash fires for —
// the job ran out of journal points, i.e. every point was covered.
func crashEverywhere(t *testing.T, req Request, want []byte) {
	t.Helper()
	const maxPoints = 120
	for n := 1; ; n++ {
		if n > maxPoints {
			t.Fatalf("journal point sweep did not terminate within %d points", maxPoints)
		}
		dir := t.TempDir()
		store, err := persist.NewJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var fired atomic.Bool
		hook := faultinject.CrashAtJournalOp(n)
		wrapped := func(p faultinject.Point) error {
			ferr := hook(p)
			if errors.Is(ferr, faultinject.ErrCrash) {
				fired.Store(true)
			}
			return ferr
		}
		m1, err := NewManager(Config{Workers: 2, Store: store, FaultHook: wrapped})
		if err != nil {
			t.Fatal(err)
		}
		id, err := m1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, m1, id)
		shutdown(t, m1)

		if !fired.Load() {
			// n is past the job's last journal point: the uninterrupted run
			// must be done and correct, and the sweep is complete.
			if st.State != StateDone {
				t.Fatalf("fault-free run finished %s (%s)", st.State, st.Error)
			}
			if got := reportBytes(t, dir, id); !bytes.Equal(got, want) {
				t.Fatalf("point %d: fault-free report diverges from baseline", n)
			}
			t.Logf("swept %d journal crash points", n-1)
			return
		}
		if st.State != StateFailed || !strings.Contains(st.Error, "simulated crash") {
			t.Fatalf("point %d: crashed job state %s error %q, want failed with simulated crash", n, st.State, st.Error)
		}

		// "Restart the daemon": a fresh manager over the frozen store.
		store2, err := persist.NewJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := NewManager(Config{Workers: 2, Store: store2})
		if err != nil {
			t.Fatalf("point %d: restart after crash: %v", n, err)
		}
		finalID := id
		if _, serr := m2.Status(id); errors.Is(serr, ErrNotFound) {
			// The process died before the submit record was durable: the
			// job is correctly forgotten, and the client resubmits.
			finalID, err = m2.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
		}
		if st := waitTerminal(t, m2, finalID); st.State != StateDone {
			t.Fatalf("point %d: resumed job finished %s (%s)", n, st.State, st.Error)
		}
		if got := reportBytes(t, dir, finalID); !bytes.Equal(got, want) {
			t.Fatalf("point %d: resumed report is not byte-identical to the uninterrupted run", n)
		}
		if store2.HasJournal(finalID) {
			t.Fatalf("point %d: finished job's journal not removed", n)
		}
		shutdown(t, m2)
	}
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestCrashAtEveryJournalPointResumesByteIdentical is the tentpole
// acceptance test: a job interrupted by simulated process death at every
// single journal hook point — before and after each fsync — resumes on
// restart and produces a report byte-identical to an uninterrupted run.
func TestCrashAtEveryJournalPointResumesByteIdentical(t *testing.T) {
	req := tinyRequest(17)
	req.Options.MonteCarloSamples = 64
	req.Options.Shards = 2
	crashEverywhere(t, req, runToCompletion(t, req))
}

// TestCrashMidAdaptiveWaveResumesByteIdentical sweeps the same crash
// points over an adaptive (tolerance-driven) job, whose completion stage
// schedules further observation waves: a crash can land between waves and
// the resumed job must replay the identical wave structure.
func TestCrashMidAdaptiveWaveResumesByteIdentical(t *testing.T) {
	req := tinyRequest(23)
	req.Options.MonteCarloSamples = 48
	req.Options.Tolerance = 1e-6 // tight: force several waves before the budget
	req.Options.Shards = 2
	crashEverywhere(t, req, runToCompletion(t, req))
}

// TestCrashExactShardedResumesByteIdentical sweeps the crash points of an
// exact-pipeline job split into shards: every observe record carries
// the shard's cell-batch digest, and the resumed job re-derives and
// verifies each journaled one before its report can match.
func TestCrashExactShardedResumesByteIdentical(t *testing.T) {
	req := tinyRequest(31)
	req.Options.Shards = 2
	crashEverywhere(t, req, runToCompletion(t, req))
}

// crashAfterFirstObserve runs req until its first observe record is
// durable, simulates process death there, and returns the store directory
// and the job ID.
func crashAfterFirstObserve(t *testing.T, req Request) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Workers:   1,
		Store:     store,
		FaultHook: faultinject.CrashNth(faultinject.OpJournalAfter, taskObserve, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if id, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateFailed {
		t.Fatalf("crashed job state %s (%s)", st.State, st.Error)
	}
	shutdown(t, m)
	return dir, id
}

// recoverJob starts a manager over the store in dir and waits for job id.
func recoverJob(t *testing.T, dir, id string, logger *slog.Logger) Status {
	t.Helper()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Workers: 1, Store: store, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	return waitTerminal(t, m, id)
}

// TestRecoveredExactShardDigestMismatchFails tampers with the digest an
// exact job journaled for its first shard: the resumed job
// re-derives a different digest and must fail loudly, not report.
func TestRecoveredExactShardDigestMismatchFails(t *testing.T) {
	req := tinyRequest(37)
	req.Options.Shards = 2
	dir, id := crashAfterFirstObserve(t, req)

	path := filepath.Join(dir, id+".journal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	var submit, observe persist.JournalRecord
	if err := json.Unmarshal(lines[0], &submit); err != nil {
		t.Fatal(err)
	}
	if submit.DigestFormat != digestFormat {
		t.Fatalf("submit record digest format %d, want %d", submit.DigestFormat, digestFormat)
	}
	last := len(lines) - 2 // the final element is the empty tail
	if err := json.Unmarshal(lines[last], &observe); err != nil || observe.Stage != taskObserve || observe.Digest == "" {
		t.Fatalf("last journal record %s is not an observe record with a digest (%v)", lines[last], err)
	}
	observe.Digest = strings.Repeat("0", len(observe.Digest))
	tampered, err := json.Marshal(observe)
	if err != nil {
		t.Fatal(err)
	}
	lines[last] = append(tampered, '\n')
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	st := recoverJob(t, dir, id, nil)
	if st.State != StateFailed || !strings.Contains(st.Error, "determinism violation") {
		t.Fatalf("tampered job finished %s (%q), want failed with a determinism violation", st.State, st.Error)
	}
}

// TestLegacyJournalRecoversByteIdentical resumes a Monte-Carlo job journal
// written before submit records declared a digest format. It crashed after
// its first observe record, whose digest is of the earlier (round, column)
// hash no shard re-derives. Recovery ignores that digest, says so in the
// log, and re-executes the job to the report a fault-free run writes.
func TestLegacyJournalRecoversByteIdentical(t *testing.T) {
	req := tinyRequest(29)
	req.Options.MonteCarloSamples = 64
	req.Options.Shards = 2
	want := runToCompletion(t, req)

	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-mc.journal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const id = "job-84c1e8b2d4e3c41c03b55ebb"
	if err := os.WriteFile(filepath.Join(dir, id+".journal"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	h := &recordingHandler{}
	if st := recoverJob(t, dir, id, slog.New(h)); st.State != StateDone {
		t.Fatalf("legacy journal job finished %s (%s)", st.State, st.Error)
	}
	if got := reportBytes(t, dir, id); !bytes.Equal(got, want) {
		t.Fatal("legacy journal resumed report diverges from a fault-free run")
	}
	if attrs := h.find("journal observe digests predate the current digest format; resuming without comparing them", id); attrs == nil {
		t.Fatal("no log line says the legacy observe digests were ignored")
	}
}

// TestPreviousDigestFormatJournalRecoversByteIdentical resumes an exact
// job journal whose submit record declares digest format 2, from before
// wave 0's shards held FedSV's cells: its observe digest is one no
// current shard re-derives (zeroed here). Recovery ignores it, says so in
// the log, and re-executes the job to the report a fault-free run writes.
func TestPreviousDigestFormatJournalRecoversByteIdentical(t *testing.T) {
	req := tinyRequest(37)
	req.Options.Shards = 2
	want := runToCompletion(t, req)
	dir, id := crashAfterFirstObserve(t, req)

	path := filepath.Join(dir, id+".journal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	for i, line := range lines[:len(lines)-1] { // the final element is the empty tail
		var rec persist.JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == persist.RecSubmit {
			rec.DigestFormat = 2
		}
		if rec.Digest != "" {
			rec.Digest = strings.Repeat("0", len(rec.Digest))
		}
		if lines[i], err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		lines[i] = append(lines[i], '\n')
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	h := &recordingHandler{}
	if st := recoverJob(t, dir, id, slog.New(h)); st.State != StateDone {
		t.Fatalf("format-2 journal job finished %s (%s)", st.State, st.Error)
	}
	if got := reportBytes(t, dir, id); !bytes.Equal(got, want) {
		t.Fatal("format-2 journal resumed report diverges from a fault-free run")
	}
	if attrs := h.find("journal observe digests predate the current digest format; resuming without comparing them", id); attrs == nil {
		t.Fatal("no log line says the format-2 observe digests were ignored")
	}
}

// TestJournalHoldsOnlyWhatRecoveryReads pins a finished job's journal
// contents: a submit record, then one observe record per executed shard
// across every adaptive wave — nothing for prepare, complete or shapley,
// which recovery never reads.
func TestJournalHoldsOnlyWhatRecoveryReads(t *testing.T) {
	req := tinyRequest(23)
	req.Options.MonteCarloSamples = 48
	req.Options.Tolerance = 1e-6
	req.Options.Shards = 2
	store, err := persist.NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var appended []faultinject.Point
	m := newManager(t, Config{Workers: 2, Store: store, FaultHook: faultinject.Notify(faultinject.OpJournalAfter, "", func(p faultinject.Point) {
		mu.Lock()
		appended = append(appended, p)
		mu.Unlock()
	})})
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Shards <= req.Options.Shards {
		t.Fatalf("job ran %d shards, want more than one wave of %d", st.Shards, req.Options.Shards)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(appended) != 1+st.Shards || appended[0].Stage != persist.RecSubmit {
		t.Fatalf("journal appends %v, want submit then %d observe records", appended, st.Shards)
	}
	seen := make(map[int]bool)
	for _, p := range appended[1:] {
		if p.Stage != taskObserve || seen[p.Shard] || p.Shard < 0 || p.Shard >= st.Shards {
			t.Fatalf("journal appends %v, want submit then one observe record per shard 0..%d", appended, st.Shards-1)
		}
		seen[p.Shard] = true
	}
}

// TestTransientShardFailuresRetriedLeaveReportUnchanged pins the retry
// contract: two injected transient failures of the same observation shard
// are retried with deterministic backoff and the finished report is
// byte-identical to a fault-free run, with the retries visible in the job
// status and the manager metrics.
func TestTransientShardFailuresRetriedLeaveReportUnchanged(t *testing.T) {
	req := tinyRequest(31)
	req.Options.MonteCarloSamples = 64
	req.Options.Shards = 2
	want := runToCompletion(t, req)

	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{
		Workers:        2,
		Store:          store,
		MaxTaskRetries: 3,
		RetryBaseDelay: time.Millisecond,
		FaultHook: faultinject.Chain(
			faultinject.FailNth(taskObserve, 1),
			faultinject.FailNth(taskObserve, 1),
		),
	})
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done after retries", st.State, st.Error)
	}
	if st.Retries != 2 {
		t.Fatalf("status reports %d retries, want 2", st.Retries)
	}
	if !strings.Contains(st.LastError, "faultinject") {
		t.Fatalf("status last_error %q does not record the transient failure", st.LastError)
	}
	if got := reportBytes(t, dir, id); !bytes.Equal(got, want) {
		t.Fatal("report after transient retries differs from fault-free run")
	}
	if n := m.Metrics().TaskRetries[taskObserve]; n != 2 {
		t.Fatalf("metrics count %d observe retries, want 2", n)
	}
}

// TestTransientFailureExhaustsRetryBudget pins the other side: a stage
// that keeps failing transiently fails its job once the budget is spent.
func TestTransientFailureExhaustsRetryBudget(t *testing.T) {
	m := newManager(t, Config{
		Workers:        1,
		MaxTaskRetries: 2,
		RetryBaseDelay: time.Millisecond,
		FaultHook: func(p faultinject.Point) error {
			if p.Op == faultinject.OpTask && p.Stage == taskObserve {
				return faultinject.Transient(errors.New("injected: shard host unreachable"))
			}
			return nil
		},
	})
	id, err := m.Submit(tinyRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "shard host unreachable") {
		t.Fatalf("exhausted job: state %s error %q", st.State, st.Error)
	}
	if st.Retries != 2 {
		t.Fatalf("exhausted job retried %d times, want 2 (the budget)", st.Retries)
	}
}

// TestFatalFailureIsNotRetried pins the classifier default: an unmarked
// error is fatal and must not consume retry budget.
func TestFatalFailureIsNotRetried(t *testing.T) {
	m := newManager(t, Config{
		Workers:        1,
		MaxTaskRetries: 3,
		RetryBaseDelay: time.Millisecond,
		FaultHook:      faultinject.FailNthFatal(taskObserve, 1),
	})
	id, err := m.Submit(tinyRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed {
		t.Fatalf("fatally failed job state %s", st.State)
	}
	if st.Retries != 0 {
		t.Fatalf("fatal failure consumed %d retries, want 0", st.Retries)
	}
}

// TestPanicFailsOnlyItsJob pins panic isolation on the real pipeline: an
// injected panic in one job's stage fails that job with the goroutine
// stack in its error, while a sibling job in the same manager completes.
func TestPanicFailsOnlyItsJob(t *testing.T) {
	m := newManager(t, Config{
		Workers:   1,
		FaultHook: faultinject.PanicNth(taskPrepare, 1),
	})
	idDoomed, err := m.Submit(tinyRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, idDoomed)
	if st.State != StateFailed || !strings.Contains(st.Error, "service: job panicked") {
		t.Fatalf("panicked job: state %s error %q", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("panic error carries no stack: %q", st.Error)
	}
	idHealthy, err := m.Submit(tinyRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, idHealthy); st.State != StateDone {
		t.Fatalf("sibling job after a panic finished %s (%s)", st.State, st.Error)
	}
}

// TestTaskTimeoutRetriesTransiently pins the per-task deadline: a hung
// task execution is cut off at Config.TaskTimeout, classified transient,
// and the retry succeeds.
func TestTaskTimeoutRetriesTransiently(t *testing.T) {
	var calls atomic.Int32
	m := newManager(t, Config{
		Workers:        1,
		TaskTimeout:    20 * time.Millisecond,
		MaxTaskRetries: 2,
		RetryBaseDelay: time.Millisecond,
		buildValuation: oneShard(func(ctx context.Context) error {
			if calls.Add(1) == 1 {
				<-ctx.Done() // first attempt hangs until the deadline fires
				return ctx.Err()
			}
			return nil
		}),
	})
	id, err := m.Submit(tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want done after timeout retry", st.State, st.Error)
	}
	if st.Retries != 1 || !strings.Contains(st.LastError, "task deadline exceeded") {
		t.Fatalf("retries=%d last_error=%q, want 1 timeout retry", st.Retries, st.LastError)
	}
}

// TestJobDeadlineFailsOverdueJob pins the whole-job deadline on a manual
// clock: a job that runs past Config.JobTimeout fails with ErrJobDeadline
// the instant the clock says so — no real time passes.
func TestJobDeadlineFailsOverdueJob(t *testing.T) {
	clk := faultinject.NewManualClock(time.Unix(1700000000, 0))
	m := newManager(t, Config{
		Workers:    1,
		JobTimeout: time.Minute,
		Clock:      clk,
		buildValuation: oneShard(func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}),
	})
	id, err := m.Submit(tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the watchdog to park on the clock, then expire the job.
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job watchdog never armed")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * time.Minute)
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "job deadline exceeded") {
		t.Fatalf("overdue job: state %s error %q", st.State, st.Error)
	}
}

// TestRetryBackoffWaitsOnClock pins that a scheduled retry really waits
// out its backoff: on a manual clock the retried task does not re-execute
// until the clock advances past the deterministic delay.
func TestRetryBackoffWaitsOnClock(t *testing.T) {
	clk := faultinject.NewManualClock(time.Unix(1700000000, 0))
	m := newManager(t, Config{
		Workers:        1,
		MaxTaskRetries: 1,
		RetryBaseDelay: 100 * time.Millisecond,
		Clock:          clk,
		FaultHook:      faultinject.FailNth(taskObserve, 1),
	})
	id, err := m.Submit(tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	// The retry parks on the clock; until it advances the job stays
	// running with the retry recorded.
	deadline := time.Now().Add(10 * time.Second)
	for clk.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry never parked on the clock")
		}
		time.Sleep(time.Millisecond)
	}
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("job reached %s before the backoff elapsed", st.State)
	}
	if st.Retries != 1 {
		t.Fatalf("status reports %d retries while parked, want 1", st.Retries)
	}
	clk.Advance(time.Second) // > base<<1 + jitter(<base)
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("job after backoff finished %s (%s)", st.State, st.Error)
	}
}

// TestCorruptJournalQuarantinedAtStartup pins the corrupt-journal
// contract: startup never aborts on a damaged journal — the file is
// renamed out of the replay path and the job registers as failed with a
// clear reason.
func TestCorruptJournalQuarantinedAtStartup(t *testing.T) {
	dir := t.TempDir()
	const id = "job-deadbeefdeadbeefdeadbeef"
	if err := os.WriteFile(filepath.Join(dir, id+".journal"), []byte("this is not a journal record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Workers: 1, Store: store})
	st, err := m.Status(id)
	if err != nil {
		t.Fatalf("quarantined job not registered: %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "quarantined") {
		t.Fatalf("quarantined job: state %s error %q", st.State, st.Error)
	}
	if store.HasJournal(id) {
		t.Fatal("corrupt journal still in the replay path")
	}
	if _, err := os.Stat(filepath.Join(dir, id+".journal.corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// A healthy job still runs on the same manager.
	hid, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, hid); st.State != StateDone {
		t.Fatalf("job after quarantine finished %s (%s)", st.State, st.Error)
	}
}

// TestTornJournalTailResumesJob pins torn-write handling end to end: a
// journal whose final record was half-written (the classic crash artifact)
// is not corrupt — the tail is dropped and the job resumes from the last
// durable record.
func TestTornJournalTailResumesJob(t *testing.T) {
	req := tinyRequest(13)
	want := runToCompletion(t, req)

	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Crash after the prepare record is durable, then tear the tail by
	// appending half a record with no newline.
	m1, err := NewManager(Config{
		Workers:   1,
		Store:     store,
		FaultHook: faultinject.CrashNth(faultinject.OpJournalBefore, taskObserve, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m1, id); st.State != StateFailed {
		t.Fatalf("crashed job state %s (%s)", st.State, st.Error)
	}
	shutdown(t, m1)
	f, err := os.OpenFile(filepath.Join(dir, id+".journal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"task","stage":"obse`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store2, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Config{Workers: 1, Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m2)
	if st := waitTerminal(t, m2, id); st.State != StateDone {
		t.Fatalf("torn-tail job finished %s (%s)", st.State, st.Error)
	}
	if got := reportBytes(t, dir, id); !bytes.Equal(got, want) {
		t.Fatal("torn-tail resumed report diverges from baseline")
	}
	if n := m2.met.jobsRecovered.Value(); n != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", n)
	}
}

// TestUserCancelRemovesJournalShutdownKeepsIt pins the two cancellation
// flavors: an explicit Cancel must not resurrect on restart (journal
// removed); a shutdown abort must (journal kept, job resumes).
func TestUserCancelRemovesJournalShutdownKeepsIt(t *testing.T) {
	gate := make(chan struct{})
	blocked := make(chan struct{}, 2)
	blockingValuation := oneShard(func(ctx context.Context) error {
		blocked <- struct{}{}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	// User cancel: journal gone.
	dirA := t.TempDir()
	storeA, err := persist.NewJobStore(dirA)
	if err != nil {
		t.Fatal(err)
	}
	mA := newManager(t, Config{Workers: 1, Store: storeA, buildValuation: blockingValuation})
	idA, err := mA.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := mA.Cancel(idA); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, mA, idA); st.State != StateFailed {
		t.Fatalf("cancelled job state %s", st.State)
	}
	if storeA.HasJournal(idA) {
		t.Fatal("user-cancelled job's journal survived; a restart would resurrect it")
	}

	// Shutdown abort: journal kept, restart resumes.
	dirB := t.TempDir()
	storeB, err := persist.NewJobStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := NewManager(Config{Workers: 1, Store: storeB, buildValuation: blockingValuation})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := mB.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	mB.Shutdown(expired) // aborts the running job
	if !storeB.HasJournal(idB) {
		t.Fatal("shutdown-aborted job's journal was removed; restart cannot resume it")
	}
	close(gate)
	storeB2, err := persist.NewJobStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	mB2 := newManager(t, Config{Workers: 1, Store: storeB2, buildValuation: oneShard(nil)})
	if st := waitTerminal(t, mB2, idB); st.State != StateDone {
		t.Fatalf("resumed job after shutdown finished %s (%s)", st.State, st.Error)
	}
	if n := mB2.met.jobsRecovered.Value(); n != 1 {
		t.Fatalf("jobs_recovered = %d, want 1", n)
	}
}

// TestQueueFullRejectionIsCounted pins the rejection metric feeding
// comfedsvd_jobs_rejected_total.
func TestQueueFullRejectionIsCounted(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 1)
	m := newManager(t, Config{
		Workers:    1,
		QueueDepth: 1,
		buildValuation: oneShard(func(ctx context.Context) error {
			started <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil
		}),
	})
	if _, err := m.Submit(tinyRequest(1)); err != nil {
		t.Fatal(err)
	}
	<-started // first job occupies the worker, freeing its queue slot
	if _, err := m.Submit(tinyRequest(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinyRequest(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: %v, want ErrQueueFull", err)
	}
	if n := m.met.jobsRejected.Value(); n != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", n)
	}
}

// TestQuarantineCrashResurrectionReQuarantines pins the durability fix in
// the quarantine path: the directory sync after the rename is what makes a
// quarantine stick. A crash in the window between the rename and the dir
// sync (faultinject.OpQuarantine) can lose the directory update and
// resurrect the corrupt journal under its original name; the next startup
// must simply quarantine it again — idempotently, without aborting, and
// without replaying the damaged file.
func TestQuarantineCrashResurrectionReQuarantines(t *testing.T) {
	dir := t.TempDir()
	const id = "job-cafecafecafecafecafecafe"
	journalPath := filepath.Join(dir, id+".journal")
	if err := os.WriteFile(journalPath, []byte("this is not a journal record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First startup crashes in the quarantine window. The manager itself
	// survives — a quarantine failure is logged, the job still registers
	// as failed — but the rename never became durable.
	m1, err := NewManager(Config{
		Workers:   1,
		Store:     store,
		FaultHook: faultinject.CrashNth(faultinject.OpQuarantine, "quarantine", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, serr := m1.Status(id); serr != nil || st.State != StateFailed {
		t.Fatalf("quarantined job after crashed quarantine: %+v, %v", st, serr)
	}
	// Abandon m1 (the simulated dead process) and roll the rename back,
	// modeling the lost directory update.
	if err := os.Rename(filepath.Join(dir, id+".journal.corrupt"), journalPath); err != nil {
		t.Fatal(err)
	}

	store2, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newManager(t, Config{Workers: 1, Store: store2})
	st, err := m2.Status(id)
	if err != nil {
		t.Fatalf("resurrected journal not re-quarantined: %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "quarantined") {
		t.Fatalf("re-quarantined job: state %s error %q", st.State, st.Error)
	}
	if store2.HasJournal(id) {
		t.Fatal("resurrected corrupt journal still in the replay path")
	}
	if _, err := os.Stat(filepath.Join(dir, id+".journal.corrupt")); err != nil {
		t.Fatalf("quarantine file missing after re-quarantine: %v", err)
	}
	// A healthy job still runs on the recovered manager.
	hid, err := m2.Submit(tinyRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m2, hid); st.State != StateDone {
		t.Fatalf("job after re-quarantine finished %s (%s)", st.State, st.Error)
	}
}
