package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
)

// taskLog records scripted-task executions in order.
type taskLog struct {
	mu     sync.Mutex
	events []string
}

func (l *taskLog) add(event string) {
	l.mu.Lock()
	l.events = append(l.events, event)
	l.mu.Unlock()
}

func (l *taskLog) index(event string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, e := range l.events {
		if e == event {
			return i
		}
	}
	return -1
}

// fakeValuation is a scripted stage graph: it records every stage
// execution into a shared log and can block inside Prepare or a given
// observe shard until released.
type fakeValuation struct {
	name        string
	shards      int
	log         *taskLog
	prepareGate <-chan struct{} // if non-nil, Prepare blocks until closed
	observeGate map[int]<-chan struct{}
	// observe, if non-nil, runs in every ObserveShard after its gate:
	// tests script hangs, panics, and failures with it.
	observe func(ctx context.Context) error

	// extractStarted, if non-nil, is closed when Extract begins;
	// extractGate, if non-nil, blocks Extract (deliberately ignoring the
	// context — simulating an extraction that finishes despite a racing
	// cancel) until closed.
	extractStarted chan struct{}
	extractGate    <-chan struct{}

	// waves scripts adaptive behavior: the i-th Complete call returns
	// waves[i] additional observation shards (calls past the end, or a nil
	// slice, return 0 — the plan is done).
	waves     []int
	completes int
}

func (f *fakeValuation) Prepare(ctx context.Context) (int, error) {
	if f.prepareGate != nil {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-f.prepareGate:
		}
	}
	f.log.add(f.name + ":prepare")
	return f.shards, nil
}

func (f *fakeValuation) ObserveShard(ctx context.Context, shard int) error {
	if gate := f.observeGate[shard]; gate != nil {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gate:
		}
	}
	if f.observe != nil {
		if err := f.observe(ctx); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f.log.add(fmt.Sprintf("%s:observe%d", f.name, shard))
	return nil
}

func (f *fakeValuation) Complete(ctx context.Context) (int, error) {
	f.log.add(f.name + ":complete")
	more := 0
	if f.completes < len(f.waves) {
		more = f.waves[f.completes]
	}
	f.completes++
	return more, nil
}

func (f *fakeValuation) Extract(ctx context.Context) (*comfedsv.Report, error) {
	if f.extractStarted != nil {
		close(f.extractStarted)
	}
	if f.extractGate != nil {
		<-f.extractGate
	}
	f.log.add(f.name + ":extract")
	return &comfedsv.Report{FedSV: []float64{1}, ComFedSV: []float64{1}}, nil
}

func (f *fakeValuation) Stats() *comfedsv.EvalStats { return nil }

func (f *fakeValuation) TrainedRun() *comfedsv.TrainedRun { return nil }

func (f *fakeValuation) ShardDigest(int) string { return "" }

func (f *fakeValuation) ShardCells(context.Context, int) (*comfedsv.CellBatch, error) {
	return nil, errors.New("scripted pipeline: no cells")
}

// scriptManager wires a manager whose submissions consume the given fake
// valuations in order.
func scriptManager(t *testing.T, workers int, fakes ...stagedValuation) *Manager {
	t.Helper()
	var mu sync.Mutex
	next := 0
	cfg := Config{Workers: workers}
	cfg.buildValuation = func(Request, comfedsv.Options) stagedValuation {
		mu.Lock()
		defer mu.Unlock()
		f := fakes[next]
		next++
		return f
	}
	return newManager(t, cfg)
}

// TestSchedulerFairnessSmallJobInterleaves is the head-of-line-blocking
// regression test of the stage-graph scheduler: with ONE worker, a large
// job A (4 observation shards) submitted before a small job B (1 shard)
// must not run to completion first — the round-robin ring interleaves B's
// tasks between A's shards, so B's first shard runs (and B finishes)
// before A's observation stage even ends.
func TestSchedulerFairnessSmallJobInterleaves(t *testing.T) {
	log := &taskLog{}
	gate := make(chan struct{})
	a := &fakeValuation{name: "A", shards: 4, log: log, prepareGate: gate}
	b := &fakeValuation{name: "B", shards: 1, log: log}
	m := scriptManager(t, 1, a, b)

	idA, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the lone worker owns A's prepare task, so B enters the
	// ring ahead of A's shard fan-out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.Status(idA); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	idB, err := m.Submit(tinyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	if st := waitTerminal(t, m, idB); st.State != StateDone {
		t.Fatalf("B finished %s (%s)", st.State, st.Error)
	}
	if st := waitTerminal(t, m, idA); st.State != StateDone {
		t.Fatalf("A finished %s (%s)", st.State, st.Error)
	}

	// B's first shard ran before A's observation stage finished, and B
	// completed outright before A's extraction — the old worker-per-job
	// engine would have run all of A first.
	if bObs, aLast := log.index("B:observe0"), log.index("A:observe3"); bObs < 0 || aLast < 0 || bObs > aLast {
		t.Fatalf("B's first shard at %d, A's last shard at %d; want B interleaved before A finishes observing\nlog: %v", bObs, aLast, log.events)
	}
	if bExt, aExt := log.index("B:extract"), log.index("A:extract"); bExt > aExt {
		t.Fatalf("B extracted at %d, after A at %d; small job starved\nlog: %v", bExt, aExt, log.events)
	}

	st, err := m.Status(idA)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.ShardsDone != 4 {
		t.Fatalf("A shard accounting %d/%d, want 4/4", st.ShardsDone, st.Shards)
	}
}

// bareManager builds a Manager with no workers, for deterministic direct
// tests of the scheduling primitives.
func bareManager() *Manager {
	m := &Manager{
		jobs: make(map[string]*job),
		runs: make(map[string]*runEntry),
	}
	m.registerMetrics()
	m.cond = sync.NewCond(&m.mu)
	return m
}

// TestPopTaskRoundRobinOrdering pins the ordering contract of
// popTaskLocked, the replacement for the job-FIFO popEligibleLocked: jobs
// surrender one task per turn and rotate to the back of the ring.
func TestPopTaskRoundRobinOrdering(t *testing.T) {
	m := bareManager()
	mkJob := func(id string) *job {
		j := &job{id: id, state: StateQueued}
		m.jobs[id] = j
		return j
	}
	mkTask := func(j *job, stage string) *task {
		return &task{j: j, stage: stage, shard: -1}
	}
	jA, jB, jC := mkJob("A"), mkJob("B"), mkJob("C")

	m.mu.Lock()
	defer m.mu.Unlock()
	m.enqueueLocked(jA, mkTask(jA, "a1"), mkTask(jA, "a2"), mkTask(jA, "a3"))
	m.enqueueLocked(jB, mkTask(jB, "b1"))
	m.enqueueLocked(jC, mkTask(jC, "c1"), mkTask(jC, "c2"))

	var got []string
	for {
		tk := m.popTaskLocked()
		if tk == nil {
			break
		}
		got = append(got, tk.stage)
	}
	want := []string{"a1", "b1", "c1", "a2", "c2", "a3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want round-robin %v", got, want)
	}
	if jA.inRing || jB.inRing || jC.inRing {
		t.Fatal("drained jobs still marked in ring")
	}

	// A job whose tasks are enqueued mid-stream joins at the back.
	m.enqueueLocked(jA, mkTask(jA, "a4"))
	m.enqueueLocked(jB, mkTask(jB, "b2"))
	if tk := m.popTaskLocked(); tk.stage != "a4" {
		t.Fatalf("pop after re-enqueue = %s, want a4", tk.stage)
	}
	if tk := m.popTaskLocked(); tk.stage != "b2" {
		t.Fatal("re-enqueued jobs lost ring order")
	}
}

// TestPopTaskSkipsJobsOnTrainingRuns pins the eligibility rule: a queued
// job referencing a run still in training keeps its ring slot but is
// skipped in place, so later jobs run; once the run leaves the training
// state the job pops normally.
func TestPopTaskSkipsJobsOnTrainingRuns(t *testing.T) {
	m := bareManager()
	e := &runEntry{id: "run-x", state: RunTraining, done: make(chan struct{})}
	m.runs["run-x"] = e

	jWaiting := &job{id: "W", state: StateQueued, runID: "run-x"}
	jInline := &job{id: "I", state: StateQueued}
	m.jobs["W"] = jWaiting
	m.jobs["I"] = jInline

	m.mu.Lock()
	defer m.mu.Unlock()
	m.enqueueLocked(jWaiting, &task{j: jWaiting, stage: "w1", shard: -1})
	m.enqueueLocked(jInline, &task{j: jInline, stage: "i1", shard: -1})

	if tk := m.popTaskLocked(); tk == nil || tk.stage != "i1" {
		t.Fatalf("pop with training run = %+v, want the inline job's task", tk)
	}
	if tk := m.popTaskLocked(); tk != nil {
		t.Fatalf("pop returned %s while the only remaining job waits on training", tk.stage)
	}
	if !jWaiting.inRing {
		t.Fatal("waiting job lost its ring slot")
	}

	e.state = RunReady
	if tk := m.popTaskLocked(); tk == nil || tk.stage != "w1" {
		t.Fatalf("pop after training = %+v, want the waiting job's task", tk)
	}

	// A *running* job's tasks are never skipped: the run reference only
	// gates the first task.
	jRunning := &job{id: "R", state: StateRunning, runID: "run-y"}
	m.jobs["R"] = jRunning
	m.runs["run-y"] = &runEntry{id: "run-y", state: RunTraining, done: make(chan struct{})}
	m.enqueueLocked(jRunning, &task{j: jRunning, stage: "r1", shard: -1})
	if tk := m.popTaskLocked(); tk == nil || tk.stage != "r1" {
		t.Fatalf("pop of running job = %+v, want its task regardless of run state", tk)
	}
}

// TestCancelDrainsQueuedShards pins the cancellation contract of the
// staged scheduler: cancelling a job mid-observation drains its queued
// shard tasks (they never execute) and the job fails with ErrCancelled
// once the in-flight shard observes the cancellation.
func TestCancelDrainsQueuedShards(t *testing.T) {
	log := &taskLog{}
	gate := make(chan struct{})
	defer close(gate)
	a := &fakeValuation{
		name:        "A",
		shards:      6,
		log:         log,
		observeGate: map[int]<-chan struct{}{0: gate},
	}
	m := scriptManager(t, 1, a)
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until shard 0 is in flight (prepare logged, worker blocked).
	deadline := time.Now().Add(5 * time.Second)
	for log.index("A:prepare") < 0 {
		if time.Now().After(deadline) {
			t.Fatal("prepare never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Error != ErrCancelled.Error() {
		t.Fatalf("cancelled job: state %s error %q", st.State, st.Error)
	}
	// No shard ever executed: shard 0 was cancelled while blocked, shards
	// 1..5 were drained from the queue.
	for i := 0; i < 6; i++ {
		if log.index(fmt.Sprintf("A:observe%d", i)) >= 0 {
			t.Fatalf("shard %d executed after cancellation\nlog: %v", i, log.events)
		}
	}
	if st.ShardsDone != 0 {
		t.Fatalf("cancelled job reports %d shards done, want 0", st.ShardsDone)
	}
}

// TestTaskFailureDrainsSiblingShards pins failure isolation: one shard
// failing cancels the job and drains its siblings, without disturbing an
// unrelated concurrent job.
func TestTaskFailureDrainsSiblingShards(t *testing.T) {
	log := &taskLog{}
	gate := make(chan struct{})
	boom := &failingShardValuation{fake: fakeValuation{name: "F", shards: 4, log: log, observeGate: map[int]<-chan struct{}{0: gate}}, failShard: 0}
	ok := &fakeValuation{name: "OK", shards: 1, log: log}
	m := scriptManager(t, 2, boom, ok)
	idF, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	idOK, err := m.Submit(tinyRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if st := waitTerminal(t, m, idF); st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("failing job: state %s error %q, want failed with \"boom\"", st.State, st.Error)
	}
	if st := waitTerminal(t, m, idOK); st.State != StateDone {
		t.Fatalf("sibling job finished %s (%s)", st.State, st.Error)
	}
	if log.index("F:complete") >= 0 || log.index("F:extract") >= 0 {
		t.Fatalf("failed job advanced past observation\nlog: %v", log.events)
	}
}

type failingShardValuation struct {
	fake      fakeValuation
	failShard int
}

func (f *failingShardValuation) Prepare(ctx context.Context) (int, error) {
	return f.fake.Prepare(ctx)
}

func (f *failingShardValuation) ObserveShard(ctx context.Context, shard int) error {
	if shard == f.failShard {
		if gate := f.fake.observeGate[shard]; gate != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-gate:
			}
		}
		return errors.New("boom")
	}
	return f.fake.ObserveShard(ctx, shard)
}

func (f *failingShardValuation) Complete(ctx context.Context) (int, error) {
	return f.fake.Complete(ctx)
}

func (f *failingShardValuation) Extract(ctx context.Context) (*comfedsv.Report, error) {
	return f.fake.Extract(ctx)
}

func (f *failingShardValuation) Stats() *comfedsv.EvalStats { return nil }

func (f *failingShardValuation) TrainedRun() *comfedsv.TrainedRun { return nil }

func (f *failingShardValuation) ShardDigest(int) string { return "" }

func (f *failingShardValuation) ShardCells(context.Context, int) (*comfedsv.CellBatch, error) {
	return nil, errors.New("scripted pipeline: no cells")
}

// TestCancelRacingExtractionCompletesDone pins the cancel-vs-completion
// race: when Cancel lands while the extraction task is in flight and the
// extraction still succeeds (its report may already be persisted), the job
// completes done — failing it would strand an on-disk report that a
// restart resurrects as a done job the caller was told was cancelled.
func TestCancelRacingExtractionCompletesDone(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	log := &taskLog{}
	gate := make(chan struct{})
	started := make(chan struct{})
	a := &fakeValuation{name: "A", shards: 1, log: log, extractStarted: started, extractGate: gate}
	var mu sync.Mutex
	next := 0
	fakes := []stagedValuation{a}
	cfg := Config{Workers: 1, Store: store}
	cfg.buildValuation = func(Request, comfedsv.Options) stagedValuation {
		mu.Lock()
		defer mu.Unlock()
		f := fakes[next]
		next++
		return f
	}
	m := newManager(t, cfg)
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // extraction is in flight on the worker
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(gate) // extraction finishes despite the cancel
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s), want done: the extraction won the race", st.State, st.Error)
	}
	if _, err := m.Report(id); err != nil {
		t.Fatalf("report of completed job: %v", err)
	}
	if !store.HasJobReport(id) {
		t.Fatal("completed job's report missing from the store")
	}
}

// TestMixedLoadSmallJobFinishesFirst is the acceptance test for the
// tentpole on the REAL pipeline: with one worker, a large Monte-Carlo job
// submitted first and a small job submitted behind it, the small job
// completes before the large one finishes — time-to-first-completion under
// mixed load is no longer the large job's full runtime. The worker is held
// at the big job's prepare task until both submissions returned: a test
// goroutine descheduled between the two Submits must not let the big job
// finish before the small one exists.
func TestMixedLoadSmallJobFinishesFirst(t *testing.T) {
	release := make(chan struct{})
	m := newManager(t, Config{
		Workers:   1,
		FaultHook: faultinject.Notify(faultinject.OpTask, taskPrepare, func(faultinject.Point) { <-release }),
	})

	big := tinyRequest(41)
	big.Options.Rounds = 6
	big.Options.MonteCarloSamples = 400
	big.Options.Shards = 8
	small := tinyRequest(42)

	idBig, err := m.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	idSmall, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	stSmall := waitTerminal(t, m, idSmall)
	if stSmall.State != StateDone {
		t.Fatalf("small job finished %s (%s)", stSmall.State, stSmall.Error)
	}
	stBig := waitTerminal(t, m, idBig)
	if stBig.State != StateDone {
		t.Fatalf("big job finished %s (%s)", stBig.State, stBig.Error)
	}
	if !stSmall.FinishedAt.Before(*stBig.FinishedAt) {
		t.Fatalf("small job finished at %v, after the big job at %v: head-of-line blocking is back",
			stSmall.FinishedAt, stBig.FinishedAt)
	}
	if stBig.Shards != 8 || stBig.ShardsDone != 8 {
		t.Fatalf("big job shard accounting %d/%d, want 8/8", stBig.ShardsDone, stBig.Shards)
	}

	// Determinism across the scheduler: the sharded big job's report is
	// byte-identical to the direct single-threaded call.
	rep, err := m.Report(idBig)
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest(41)
	req.Options.Rounds = 6
	req.Options.MonteCarloSamples = 400
	want, err := comfedsv.Value(req.Clients, req.Test, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _ := json.Marshal(rep)
	wantB, _ := json.Marshal(want)
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("sharded scheduled report differs from direct call:\n%s\nvs\n%s", gotB, wantB)
	}
}

// TestJobTTLEvictsTerminalJobs pins the -job-ttl contract: terminal jobs
// older than the TTL vanish from memory and from the store; fresh jobs
// survive.
func TestJobTTLEvictsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{
		Workers:        1,
		Store:          store,
		JobTTL:         50 * time.Millisecond,
		buildValuation: oneShard(nil),
	})
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if !store.HasJobReport(id) {
		t.Fatal("report not persisted before eviction")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Status(id); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if store.HasJobReport(id) {
		t.Fatal("eviction left the persisted report behind")
	}
	if m.met.jobsEvicted.Value() == 0 {
		t.Fatal("eviction counter did not move")
	}
}

// TestDeleteJobLifecycle pins the DELETE surface: active jobs are refused
// with ErrJobActive, terminal jobs are removed from memory and disk, and
// unknown jobs are ErrNotFound.
func TestDeleteJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	m := newManager(t, Config{Workers: 1, Store: store, buildValuation: blockingValuation(release)})

	if err := m.DeleteJob("job-doesnotexist"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown job: %v, want ErrNotFound", err)
	}

	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := m.Status(id); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.DeleteJob(id); !errors.Is(err, ErrJobActive) {
		t.Fatalf("delete running job: %v, want ErrJobActive", err)
	}
	close(release)
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if !store.HasJobReport(id) {
		t.Fatal("report not persisted")
	}
	if err := m.DeleteJob(id); err != nil {
		t.Fatalf("delete terminal job: %v", err)
	}
	if _, err := m.Status(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("status after delete: %v, want ErrNotFound", err)
	}
	if store.HasJobReport(id) {
		t.Fatal("delete left the persisted report behind")
	}
	if err := m.DeleteJob(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete: %v, want ErrNotFound", err)
	}
	if len(m.List()) != 0 {
		t.Fatalf("deleted job still listed: %+v", m.List())
	}
}

// TestMetricsCounters spot-checks the Metrics snapshot after a sharded job.
func TestMetricsCounters(t *testing.T) {
	log := &taskLog{}
	m := scriptManager(t, 2, &fakeValuation{name: "A", shards: 3, log: log})
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	got := scrape(t, m)
	want := map[string]float64{
		`comfedsvd_jobs{state="done"}`:                     1,
		`comfedsvd_shard_tasks_executed_total`:             3,
		`comfedsvd_tasks_executed_total{stage="prepare"}`:  1,
		`comfedsvd_tasks_executed_total{stage="observe"}`:  3,
		`comfedsvd_tasks_executed_total{stage="complete"}`: 1,
		`comfedsvd_tasks_executed_total{stage="shapley"}`:  1,
		`comfedsvd_queue_depth`:                            0,
		`comfedsvd_inflight_tasks`:                         0,
		`comfedsvd_ready_tasks`:                            0,
	}
	for series, n := range want {
		if v, ok := got[series]; !ok || v != n {
			t.Fatalf("%s = %v (present %v), want %v", series, v, ok, n)
		}
	}
}
