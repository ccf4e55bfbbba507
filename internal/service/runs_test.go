package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
)

// tinySpec is the training half of tinyRequest: registering it and then
// submitting tinyRequest's options against the resulting run ID must
// reproduce the inline job byte for byte.
func tinySpec(seed int64) RunSpec {
	req := tinyRequest(seed)
	return RunSpec{Clients: req.Clients, Test: req.Test, Options: req.Options}
}

func waitRunTerminal(t *testing.T, m *Manager, id string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.RunStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != RunTraining {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s still training", id)
	return RunStatus{}
}

func TestRunIDContentAddressing(t *testing.T) {
	base := tinySpec(5)
	id := RunIDForSpec(base)
	if !persist.ValidJobID(id) || !strings.HasPrefix(id, "run-") {
		t.Fatalf("run id %q is not a valid store key", id)
	}
	if got := RunIDForSpec(tinySpec(5)); got != id {
		t.Fatalf("equal specs hash to %q and %q", id, got)
	}

	// Valuation-only knobs must not change the identity: that is what lets
	// jobs with different rank / sampling budgets share one trace.
	valuation := tinySpec(5)
	valuation.Options.Rank = 9
	valuation.Options.MonteCarloSamples = 123
	valuation.Options.Parallelism = 7
	if got := RunIDForSpec(valuation); got != id {
		t.Fatalf("valuation-only options changed the run id %q -> %q", id, got)
	}

	// HiddenUnits is dead for logistic regression.
	hidden := tinySpec(5)
	hidden.Options.HiddenUnits = 99
	if got := RunIDForSpec(hidden); got != id {
		t.Fatalf("dead hidden-units field changed the run id %q -> %q", id, got)
	}

	// For MLP the pipeline treats HiddenUnits <= 0 as 16; the identity
	// must agree, and a genuinely different width must differ.
	mlpDefault := tinySpec(5)
	mlpDefault.Options.Model = comfedsv.MLP
	mlpDefault.Options.HiddenUnits = 0
	mlpSixteen := tinySpec(5)
	mlpSixteen.Options.Model = comfedsv.MLP
	mlpSixteen.Options.HiddenUnits = 16
	if RunIDForSpec(mlpDefault) != RunIDForSpec(mlpSixteen) {
		t.Fatal("mlp hidden=0 and hidden=16 are the same training problem but hash differently")
	}
	mlpWide := tinySpec(5)
	mlpWide.Options.Model = comfedsv.MLP
	mlpWide.Options.HiddenUnits = 32
	if RunIDForSpec(mlpWide) == RunIDForSpec(mlpSixteen) {
		t.Fatal("different mlp widths produced the same run id")
	}

	// Training-relevant changes must change it.
	seeded := tinySpec(5)
	seeded.Options.Seed = 6
	if got := RunIDForSpec(seeded); got == id {
		t.Fatal("different training seed produced the same run id")
	}
	data := tinySpec(5)
	data.Clients[0].X[0][0] += 1e-9
	if got := RunIDForSpec(data); got == id {
		t.Fatal("different client data produced the same run id")
	}
}

func TestRunBackedJobByteIdenticalToInline(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	spec := tinySpec(7)
	st, created, err := m.CreateRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created || st.State != RunTraining {
		t.Fatalf("CreateRun = %+v created=%v, want a fresh training run", st, created)
	}
	// Re-registering is an idempotent dedup, not a second training.
	st2, created2, err := m.CreateRun(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if created2 || st2.ID != st.ID {
		t.Fatalf("duplicate CreateRun = %+v created=%v, want existing id %s", st2, created2, st.ID)
	}
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s), want ready", got.State, got.Error)
	}

	req := tinyRequest(7)
	runJob, err := m.Submit(Request{RunID: st.ID, Options: req.Options})
	if err != nil {
		t.Fatal(err)
	}
	inlineJob, err := m.Submit(tinyRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, runJob); s.State != StateDone {
		t.Fatalf("run-backed job finished %s (%s)", s.State, s.Error)
	}
	if s := waitTerminal(t, m, inlineJob); s.State != StateDone {
		t.Fatalf("inline job finished %s (%s)", s.State, s.Error)
	}
	got, err := m.Report(runJob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Report(inlineJob)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("run-backed report differs from inline:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

func TestRunBackedJobsShareEvaluatorCache(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	st, _, err := m.CreateRun(tinySpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}

	opts := tinyRequest(9).Options
	first, err := m.Submit(Request{RunID: st.ID, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	fs := waitTerminal(t, m, first)
	if fs.State != StateDone {
		t.Fatalf("first job finished %s (%s)", fs.State, fs.Error)
	}
	if fs.RunID != st.ID {
		t.Fatalf("first job run id %q, want %q", fs.RunID, st.ID)
	}
	if fs.CacheStats == nil || fs.CacheStats.Misses == 0 || fs.CacheStats.Hits != 0 {
		t.Fatalf("first job over a cold run: cache stats %+v, want all misses", fs.CacheStats)
	}

	second, err := m.Submit(Request{RunID: st.ID, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ss := waitTerminal(t, m, second)
	if ss.State != StateDone {
		t.Fatalf("second job finished %s (%s)", ss.State, ss.Error)
	}
	if ss.CacheStats == nil || ss.CacheStats.Hits == 0 || ss.CacheStats.Misses != 0 {
		t.Fatalf("second job over a warm run: cache stats %+v, want all hits", ss.CacheStats)
	}
	// Identical jobs pay identical per-job utility-call counts even though
	// the second one computed nothing.
	rep1, err := m.Report(first)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := m.Report(second)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.UtilityCalls != rep2.UtilityCalls {
		t.Fatalf("utility calls diverge: %d vs %d", rep1.UtilityCalls, rep2.UtilityCalls)
	}
	if ss.CacheStats.Hits != rep2.UtilityCalls {
		t.Fatalf("second job hits %d, want its full call count %d", ss.CacheStats.Hits, rep2.UtilityCalls)
	}

	rs, err := m.RunStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits == 0 || rs.CacheMisses == 0 {
		t.Fatalf("run counters %+v, want nonzero hits and misses after two jobs", rs)
	}
	if rs.ActiveJobs != 0 {
		t.Fatalf("run still pinned by %d jobs after both finished", rs.ActiveJobs)
	}
	if rs.NumClients != 4 || rs.Rounds != 4 {
		t.Fatalf("run metadata %+v, want 4 clients over 4 rounds", rs)
	}
}

func TestSubmitUnknownOrConflictingRun(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	if _, err := m.Submit(Request{RunID: "run-doesnotexist", Options: tinyRequest(1).Options}); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("unknown run: %v, want ErrRunNotFound", err)
	}
	st, _, err := m.CreateRun(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest(1)
	req.RunID = st.ID
	if _, err := m.Submit(req); err == nil {
		t.Fatal("request with both run_id and inline clients must be rejected")
	}
	testOnly := Request{RunID: st.ID, Test: tinyRequest(1).Test, Options: tinyRequest(1).Options}
	if _, err := m.Submit(testOnly); err == nil {
		t.Fatal("request with both run_id and an inline test set must be rejected")
	}
	if rs, _ := m.RunStatus(st.ID); rs.ActiveJobs != 0 {
		t.Fatalf("rejected submissions leaked %d run references", rs.ActiveJobs)
	}
}

func TestDeleteRunLifecycle(t *testing.T) {
	if err := (&Manager{runs: map[string]*runEntry{}}).DeleteRun("run-none"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("delete unknown: %v, want ErrRunNotFound", err)
	}

	trainRelease := make(chan struct{})
	valueRelease := make(chan struct{})
	m := newManager(t, Config{
		Workers: 1,
		train: func(ctx context.Context, clients []comfedsv.Client, test comfedsv.Client, opts comfedsv.Options) (*comfedsv.TrainedRun, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-trainRelease:
			}
			return comfedsv.TrainCtx(ctx, clients, test, opts)
		},
		buildValuation: blockingValuation(valueRelease),
	})

	st, _, err := m.CreateRun(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	// Still training: deletion refused.
	if err := m.DeleteRun(st.ID); !errors.Is(err, ErrRunBusy) {
		t.Fatalf("delete while training: %v, want ErrRunBusy", err)
	}
	close(trainRelease)
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}

	// Referenced by a queued-then-running job: deletion refused until the
	// job is terminal.
	id, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(3).Options})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteRun(st.ID); !errors.Is(err, ErrRunBusy) {
		t.Fatalf("delete while referenced: %v, want ErrRunBusy", err)
	}
	close(valueRelease)
	if s := waitTerminal(t, m, id); s.State != StateDone {
		t.Fatalf("job finished %s (%s)", s.State, s.Error)
	}
	if err := m.DeleteRun(st.ID); err != nil {
		t.Fatalf("delete after jobs drained: %v", err)
	}
	if _, err := m.RunStatus(st.ID); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("status after delete: %v, want ErrRunNotFound", err)
	}
	if _, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(3).Options}); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("submit against deleted run: %v, want ErrRunNotFound", err)
	}
}

// TestCancelRunBackedJobKeepsRunUsable cancels a job mid-valuation and
// then proves the shared run and its evaluator still serve later jobs
// correctly. The fault hook holds the victim's observation shards — the
// tasks that pay its cells against the run's evaluator — until the
// cancel has landed.
func TestCancelRunBackedJobKeepsRunUsable(t *testing.T) {
	release := make(chan struct{})
	m := newManager(t, Config{
		Workers:   1,
		FaultHook: faultinject.Notify(faultinject.OpTask, taskObserve, func(faultinject.Point) { <-release }),
	})
	st, _, err := m.CreateRun(tinySpec(11))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}

	victim, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(11).Options})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := m.Status(victim); s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	close(release)
	if s := waitTerminal(t, m, victim); s.State != StateFailed || s.Error != ErrCancelled.Error() {
		t.Fatalf("cancelled job: state %s error %q", s.State, s.Error)
	}
	rs, err := m.RunStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.State != RunReady || rs.ActiveJobs != 0 {
		t.Fatalf("run after cancelled job: %+v, want ready with no references", rs)
	}

	// A subsequent job over the same run must produce the inline result.
	next, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(11).Options})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, next); s.State != StateDone {
		t.Fatalf("follow-up job finished %s (%s)", s.State, s.Error)
	}
	got, err := m.Report(next)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest(11)
	want, err := comfedsv.Value(req.Clients, req.Test, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FedSV, want.FedSV) || !reflect.DeepEqual(got.ComFedSV, want.ComFedSV) {
		t.Fatal("run survived a cancelled job but no longer matches the inline result")
	}
}

// TestJobOnTrainingRunStaysQueuedWithoutStarvingWorkers pins the
// scheduler's eligibility rule: a job referencing a still-training run
// stays queued (no worker parks on it), so a single-worker pool keeps
// serving unrelated jobs during a long training; the parked job runs once
// training completes, and can be cancelled while it waits.
func TestJobOnTrainingRunStaysQueuedWithoutStarvingWorkers(t *testing.T) {
	trainRelease := make(chan struct{})
	runTraining := make(chan struct{})
	var trainings atomic.Int32
	m := newManager(t, Config{
		Workers: 1,
		train: func(ctx context.Context, clients []comfedsv.Client, test comfedsv.Client, opts comfedsv.Options) (*comfedsv.TrainedRun, error) {
			// Only the shared run's training, the first, is held; the
			// inline job trains through the same seam unhindered.
			if trainings.Add(1) == 1 {
				close(runTraining)
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-trainRelease:
				}
			}
			return comfedsv.TrainCtx(ctx, clients, test, opts)
		},
	})
	st, _, err := m.CreateRun(tinySpec(13))
	if err != nil {
		t.Fatal(err)
	}
	<-runTraining
	waiting, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(13).Options})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(13).Options})
	if err != nil {
		t.Fatal(err)
	}

	// The lone worker must not be parked on the waiting jobs: an inline
	// job submitted behind them completes while the training is blocked.
	inline, err := m.Submit(tinyRequest(13))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, inline); s.State != StateDone {
		t.Fatalf("inline job behind a training-blocked job finished %s (%s)", s.State, s.Error)
	}
	if n := trainings.Load(); n != 2 {
		t.Fatalf("%d trainings through the train seam, want 2: the run's and the inline job's", n)
	}
	if s, _ := m.Status(waiting); s.State != StateQueued {
		t.Fatalf("run-backed job is %s during training, want queued", s.State)
	}

	// Cancelling one of the parked jobs must not disturb the training or
	// the other job.
	if err := m.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, cancelled); s.State != StateFailed || s.Error != ErrCancelled.Error() {
		t.Fatalf("cancelled parked job: state %s error %q", s.State, s.Error)
	}
	if rs, _ := m.RunStatus(st.ID); rs.State != RunTraining {
		t.Fatalf("cancelling a parked job disturbed the training (state %s)", rs.State)
	}

	close(trainRelease)
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}
	if s := waitTerminal(t, m, waiting); s.State != StateDone {
		t.Fatalf("parked job after training finished %s (%s)", s.State, s.Error)
	}
}

func TestJobAgainstFailedRunFails(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	bad := tinySpec(1)
	bad.Options.NumClasses = 0 // training rejects it
	st, _, err := m.CreateRun(bad)
	if err != nil {
		t.Fatal(err)
	}
	rs := waitRunTerminal(t, m, st.ID)
	if rs.State != RunFailed || rs.Error == "" {
		t.Fatalf("invalid spec: run state %s error %q, want failed with message", rs.State, rs.Error)
	}

	// Jobs referencing the failed run fail with its reason, and the run
	// can be deleted afterwards.
	id, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(1).Options})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, m, id)
	if s.State != StateFailed || !strings.Contains(s.Error, st.ID) {
		t.Fatalf("job on failed run: state %s error %q, want failure naming the run", s.State, s.Error)
	}
	if err := m.DeleteRun(st.ID); err != nil {
		t.Fatalf("deleting a failed run: %v", err)
	}
}

// TestFailedRunRetriesOnReRegister pins the no-tombstone rule: a spec
// whose training failed once is retried by the next CreateRun of the same
// spec instead of dedup-ing onto the dead entry forever.
func TestFailedRunRetriesOnReRegister(t *testing.T) {
	var failFirst atomic.Bool
	failFirst.Store(true)
	m := newManager(t, Config{
		Workers: 1,
		train: func(ctx context.Context, clients []comfedsv.Client, test comfedsv.Client, opts comfedsv.Options) (*comfedsv.TrainedRun, error) {
			if failFirst.Swap(false) {
				return nil, errors.New("transient failure")
			}
			return comfedsv.TrainCtx(ctx, clients, test, opts)
		},
	})
	st, created, err := m.CreateRun(tinySpec(17))
	if err != nil || !created {
		t.Fatalf("first CreateRun: created=%v err=%v", created, err)
	}
	if rs := waitRunTerminal(t, m, st.ID); rs.State != RunFailed {
		t.Fatalf("first training finished %s, want failed", rs.State)
	}

	st2, created2, err := m.CreateRun(tinySpec(17))
	if err != nil {
		t.Fatal(err)
	}
	if !created2 || st2.ID != st.ID || st2.State != RunTraining {
		t.Fatalf("re-register of failed spec = %+v created=%v, want a retry under the same id", st2, created2)
	}
	if rs := waitRunTerminal(t, m, st.ID); rs.State != RunReady {
		t.Fatalf("retried training finished %s (%s), want ready", rs.State, rs.Error)
	}
	if runs := m.Runs(); len(runs) != 1 {
		t.Fatalf("retry duplicated the registry entry: %d runs listed", len(runs))
	}
	id, err := m.Submit(Request{RunID: st.ID, Options: tinyRequest(17).Options})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, id); s.State != StateDone {
		t.Fatalf("job on retried run finished %s (%s)", s.State, s.Error)
	}
}

func TestRunPanicFailsRunNotProcess(t *testing.T) {
	m := newManager(t, Config{
		Workers: 1,
		train: func(context.Context, []comfedsv.Client, comfedsv.Client, comfedsv.Options) (*comfedsv.TrainedRun, error) {
			panic("poisoned spec")
		},
	})
	st, _, err := m.CreateRun(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	rs := waitRunTerminal(t, m, st.ID)
	if rs.State != RunFailed || !strings.HasPrefix(rs.Error, "service: run training panicked: poisoned spec") {
		t.Fatalf("panicking training: state %s error %q", rs.State, rs.Error)
	}
	if !strings.Contains(rs.Error, "goroutine") {
		t.Fatalf("training panic error lacks a stack trace: %q", rs.Error)
	}
}

func TestRunPersistsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	runStore, err := persist.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := newManager(t, Config{Workers: 1, RunStore: runStore})
	st, _, err := m1.CreateRun(tinySpec(15))
	if err != nil {
		t.Fatal(err)
	}
	rs := waitRunTerminal(t, m1, st.ID)
	if rs.State != RunReady || !rs.Persisted {
		t.Fatalf("run %+v, want ready and persisted", rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A fresh manager over the same store recovers the run and serves
	// run-backed jobs from the lazily loaded trace.
	runStore2, err := persist.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := newManager(t, Config{Workers: 1, RunStore: runStore2})
	rs2, err := m2.RunStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.State != RunReady || !rs2.Persisted {
		t.Fatalf("recovered run %+v, want ready and persisted", rs2)
	}
	// Registering the same spec again after restart is a dedup, not a
	// retraining: the content address survives the process.
	if _, created, err := m2.CreateRun(tinySpec(15)); err != nil || created {
		t.Fatalf("CreateRun after recovery: created=%v err=%v, want dedup", created, err)
	}

	id, err := m2.Submit(Request{RunID: st.ID, Options: tinyRequest(15).Options})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m2, id); s.State != StateDone {
		t.Fatalf("job on recovered run finished %s (%s)", s.State, s.Error)
	}
	got, err := m2.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest(15)
	want, err := comfedsv.Value(req.Clients, req.Test, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FedSV, want.FedSV) || !reflect.DeepEqual(got.ComFedSV, want.ComFedSV) {
		t.Fatal("report from recovered run diverges from inline computation")
	}
	if err := m2.DeleteRun(st.ID); err != nil {
		t.Fatal(err)
	}
	if runStore2.HasRun(st.ID) {
		t.Fatal("DeleteRun left the trace on disk")
	}
}

// TestV1TraceRecovers restarts a daemon on a run store holding only a
// version-1 trace, as earlier releases wrote it, and requires a
// run-backed job on it to report the same bytes as on its version-2
// re-save.
func TestV1TraceRecovers(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "persist", "testdata", "trace-v1-logreg.run.json"))
	if err != nil {
		t.Fatal(err)
	}
	const id = "run-v1"
	v1Dir, v2Dir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(v1Dir, id+".run.json"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	run, err := persist.LoadRun(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	v2Store, err := persist.NewRunStore(v2Dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2Store.SaveRun(id, run); err != nil {
		t.Fatal(err)
	}

	report := func(dir string) []byte {
		t.Helper()
		store, err := persist.NewRunStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := newManager(t, Config{Workers: 1, RunStore: store})
		if rs, err := m.RunStatus(id); err != nil || rs.State != RunReady || !rs.Persisted {
			t.Fatalf("recovered run %+v (%v), want ready and persisted", rs, err)
		}
		jid, err := m.Submit(Request{RunID: id, Options: tinyRequest(15).Options})
		if err != nil {
			t.Fatal(err)
		}
		if s := waitTerminal(t, m, jid); s.State != StateDone {
			t.Fatalf("job on recovered run finished %s (%s)", s.State, s.Error)
		}
		rep, err := m.Report(jid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := report(v1Dir), report(v2Dir); !bytes.Equal(a, b) {
		t.Fatalf("report on the v1 trace\n%s\ndiffers from the one on its v2 re-save\n%s", a, b)
	}
}

func TestCorruptRecoveredRunFailsJobs(t *testing.T) {
	dir := t.TempDir()
	runStore, err := persist.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-corrupt.run.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Workers: 1, RunStore: runStore})
	rs, err := m.RunStatus("run-corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if rs.State != RunReady {
		t.Fatalf("recovered run state %s, want ready until first load", rs.State)
	}
	id, err := m.Submit(Request{RunID: "run-corrupt", Options: tinyRequest(1).Options})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, id); s.State != StateFailed || s.Error == "" {
		t.Fatalf("job on corrupt run: state %s error %q, want failure with message", s.State, s.Error)
	}
	if rs, _ := m.RunStatus("run-corrupt"); rs.State != RunFailed {
		t.Fatalf("corrupt run state %s after failed load, want failed", rs.State)
	}
}
