package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
	"comfedsv/internal/utility"
)

// dispatchDaemon is comfedsvd with -dispatch: a Manager wired to a shard
// coordinator behind the real route table, sharing a run store with the
// workers.
func dispatchDaemon(t *testing.T, runsDir string, coord *dispatch.Coordinator, cfg service.Config) *httptest.Server {
	t.Helper()
	runs, err := persist.NewRunStore(runsDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RunStore = runs
	cfg.Dispatcher = coord
	mgr, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return ts
}

// runWorker is cmd/comfedsv-worker's loop in-process: register, long-poll
// for leases, hydrate the trace from the shared run store, pay the leased
// cells, and report them as one stamped batch.
func runWorker(ctx context.Context, t *testing.T, base, id, runsDir string) {
	runWorkerWith(ctx, t, base, id, runsDir, nil)
}

// runWorkerWith is runWorker reporting each shard through complete; nil
// completes through the dispatch client.
func runWorkerWith(ctx context.Context, t *testing.T, base, id, runsDir string, complete func(lease *dispatch.Lease, cells *utility.CellBatch) error) {
	runs, err := persist.NewRunStore(runsDir)
	if err != nil {
		t.Errorf("worker %s: opening run store: %v", id, err)
		return
	}
	cl := dispatch.NewClient(base, id)
	if _, err := cl.Register(ctx); err != nil {
		if ctx.Err() == nil {
			t.Errorf("worker %s: register: %v", id, err)
		}
		return
	}
	if complete == nil {
		complete = func(lease *dispatch.Lease, cells *utility.CellBatch) error { return cl.Complete(ctx, lease.ID, cells) }
	}
	trained := make(map[string]*comfedsv.TrainedRun)
	for ctx.Err() == nil {
		lease, err := cl.Lease(ctx, time.Second)
		if err != nil || lease == nil {
			continue
		}
		task := lease.Task
		tr := trained[task.RunID]
		if tr == nil {
			run, err := runs.LoadRun(task.RunID)
			if err != nil {
				cl.Fail(ctx, lease.ID, err.Error())
				continue
			}
			tr = comfedsv.NewTrainedRun(run)
			trained[task.RunID] = tr
		}
		cells, err := tr.PayCells(ctx, task.Cells, 2)
		if err != nil {
			cl.Fail(ctx, lease.ID, err.Error())
			continue
		}
		if err := complete(lease, cells); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: complete: %v", id, err)
		}
	}
}

// registerRun posts the training payload as a shared run and waits for it
// to become ready, returning its content-addressed ID.
func registerRun(t *testing.T, base string, payload []byte) string {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+"/v1/runs", payload, &created); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST /v1/runs: %d", code)
	}
	waitRunReady(t, base, created.ID)
	return created.ID
}

// mcJobBody is a run-backed Monte-Carlo submission with a sharded
// observation stage.
func mcJobBody(t *testing.T, runID string, seed int64) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"run_id": runID,
		"options": map[string]any{
			"num_classes":         2,
			"rounds":              4,
			"clients_per_round":   2,
			"seed":                seed,
			"monte_carlo_samples": 30,
			"shards":              3,
			"parallelism":         2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDistributedObservationByteIdenticalWithWorkerLoss is the acceptance
// walkthrough of distributed observation: a run-backed Monte-Carlo job's
// shards are leased over the real HTTP surface to two workers, one of
// which is killed mid-shard (it takes a lease and goes silent); the lease
// expires, the shard is re-leased through the retry ladder to the healthy
// worker, every completion is digest-verified at the wire, and the final
// report is byte-identical to the same job executed entirely locally.
func TestDistributedObservationByteIdenticalWithWorkerLoss(t *testing.T) {
	payload, _, _, _ := tinyJob(37)
	const seed = 37

	// Baseline: same run, same job, no dispatcher — all shards local.
	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, mcJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	// Distributed daemon: short lease TTL so the killed worker's shard
	// re-leases quickly; quick retry ladder for the same reason.
	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: 400 * time.Millisecond, WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{
		Workers:        2,
		MaxTaskRetries: 5,
		RetryBaseDelay: 20 * time.Millisecond,
	})
	runID := registerRun(t, ts.URL, payload)
	if runID != localRun {
		t.Fatalf("content-addressed run IDs diverged: %s vs %s", runID, localRun)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The doomed worker registers first, so the job's shards go remote,
	// takes exactly one lease, and dies mid-shard without reporting.
	doomed := dispatch.NewClient(ts.URL, "doomed")
	if _, err := doomed.Register(ctx); err != nil {
		t.Fatalf("doomed register: %v", err)
	}

	var sub struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", mcJobBody(t, runID, seed), &sub); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}

	var doomedLease *dispatch.Lease
	deadline := time.Now().Add(30 * time.Second)
	for doomedLease == nil {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease — shards were not dispatched remotely")
		}
		l, err := doomed.Lease(ctx, 2*time.Second)
		if err != nil {
			t.Fatalf("doomed lease poll: %v", err)
		}
		doomedLease = l
	}
	// Killed mid-shard: no Complete, no Fail, no further polls. The lease
	// deadline is now the only way the shard comes back.

	// The healthy worker picks up the remaining shards and, once the
	// doomed lease expires, the re-leased one.
	go runWorker(ctx, t, ts.URL, "healthy", runsDir)

	waitJobDone(t, ts.URL, sub.ID)
	code, got := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed report differs from all-local execution:\n%s\nvs\n%s", got, want)
	}

	st := coord.Stats()
	if st.LeasesCompleted != 3 {
		t.Fatalf("LeasesCompleted = %d, want 3 (one per shard)", st.LeasesCompleted)
	}
	if st.LeasesExpired == 0 {
		t.Fatal("no lease expired — the worker-loss path never ran")
	}
	if st.DigestMismatches != 0 {
		t.Fatalf("DigestMismatches = %d, want 0", st.DigestMismatches)
	}

	// The straggler's late completion is rejected at the HTTP layer with a
	// 409 — its lease was revoked and the shard re-leased.
	straggler := &comfedsv.CellBatch{}
	straggler.Stamp()
	err := doomed.Complete(ctx, doomedLease.ID, straggler)
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("straggler completion: %v, want 409 conflict", err)
	}

	// The dispatch metrics families are exported.
	code, metrics := getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET metrics: %d", code)
	}
	for _, family := range []string{
		"comfedsvd_dispatch_workers_live",
		"comfedsvd_dispatch_leases_completed_total 3",
		"comfedsvd_dispatch_leases_expired_total",
		"comfedsvd_dispatch_digest_mismatches_total 0",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Errorf("metrics missing %q", family)
		}
	}
}

// TestDistributedObservationManyWorkersByteIdentical pins N-worker
// determinism: the same job leased across three healthy workers reports
// byte-identically to the all-local baseline.
func TestDistributedObservationManyWorkersByteIdentical(t *testing.T) {
	payload, _, _, _ := tinyJob(41)
	const seed = 41

	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, mcJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{Workers: 2})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		go runWorker(ctx, t, ts.URL, fmt.Sprintf("w%d", i), runsDir)
	}
	waitWorker(t, coord)

	id := submitAndWait(t, ts.URL, mcJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("3-worker report differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.LeasesCompleted != 3 || st.DigestMismatches != 0 {
		t.Fatalf("stats after clean distributed run: %+v", st)
	}
}

// TestV1WorkerCompletionAbsorbed pins the mixed-version deployment: a
// coordinator receives completions whose cells are the format-1 array of
// cell objects, as a worker built before the block encoding sends them.
// It absorbs every batch, persists what it adds to the run's sidecar in
// format 2, and serves a report byte-identical to local execution.
func TestV1WorkerCompletionAbsorbed(t *testing.T) {
	// bigJob's shards evaluate cells the job's FedSV stage has not, so
	// the remote batches add to the cache and reach the sidecar.
	const seed = 47
	payload := bigJob(seed)

	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, bigMCJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{Workers: 2})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var sent []string // digests of the format-1 batches the coordinator took
	completeV1 := func(lease *dispatch.Lease, cells *utility.CellBatch) error {
		body, err := json.Marshal(map[string]any{
			"lease_id": lease.ID,
			"cells": map[string]any{
				"n":      cells.N,
				"cells":  cells.Cells,
				"digest": cells.Digest,
			},
		})
		if err != nil {
			return err
		}
		if !bytes.Contains(body, []byte(`"cells":[{`)) {
			return fmt.Errorf("completion body is not format 1: %s", body)
		}
		resp, err := http.Post(ts.URL+"/v1/worker/complete", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("format-1 completion: %d", resp.StatusCode)
		}
		mu.Lock()
		sent = append(sent, cells.Digest)
		mu.Unlock()
		return nil
	}
	go runWorkerWith(ctx, t, ts.URL, "v1", runsDir, completeV1)
	waitWorker(t, coord)

	id := submitAndWait(t, ts.URL, bigMCJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("report over format-1 completions differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.LeasesCompleted != 3 || st.DigestMismatches != 0 {
		t.Fatalf("stats after format-1 completions: %+v", st)
	}

	side, err := os.ReadFile(filepath.Join(runsDir, runID+".cells"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(side, []byte(`"cells":[`)) || !bytes.Contains(side, []byte(`"cells":"`)) {
		t.Fatalf("sidecar is not all format 2:\n%s", side)
	}
	batches, err := mustRunStore(t, runsDir).ReadCells(runID)
	if err != nil {
		t.Fatal(err)
	}
	persisted := make(map[string]bool)
	for _, b := range batches {
		persisted[b.Digest] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 3 {
		t.Fatalf("worker sent %d batches, want one per shard", len(sent))
	}
	for _, d := range sent {
		if !persisted[d] {
			t.Fatalf("format-1 batch %s is not among the sidecar's %d batches", d, len(batches))
		}
	}
}

// waitWorker blocks until the coordinator has a live worker, so a job
// submitted next leases its shards instead of running them locally.
func waitWorker(t *testing.T, coord *dispatch.Coordinator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !coord.HasLiveWorkers() {
		if time.Now().After(deadline) {
			t.Fatal("no worker registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// exactJobBody is a run-backed exact-pipeline submission (no permutation
// budget) whose one wave is cut into three shards.
func exactJobBody(t *testing.T, runID string, seed int64) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"run_id": runID,
		"options": map[string]any{
			"num_classes":       2,
			"rounds":            4,
			"clients_per_round": 2,
			"seed":              seed,
			"shards":            3,
			"parallelism":       2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDistributedExactJobByteIdentical pins the exact pipeline on the
// remote path: a run-backed exact job's shards are leased like
// Monte-Carlo ones, each lease carries its chunk of utility.SelectedCells
// (which covers FedSV's cells too, so the worker pays every cell and the
// coordinator's comfedsvd_cellcache_preloaded_total counts them all), and
// the report is byte-identical to local execution.
func TestDistributedExactJobByteIdentical(t *testing.T) {
	payload, _, _, _ := tinyJob(53)
	const seed = 53

	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, exactJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{Workers: 2})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	leased := make(map[int]*utility.CellBatch)
	cl := dispatch.NewClient(ts.URL, "exact")
	go runWorkerWith(ctx, t, ts.URL, "exact", runsDir, func(lease *dispatch.Lease, cells *utility.CellBatch) error {
		mu.Lock()
		leased[lease.Task.Shard] = lease.Task.Cells
		mu.Unlock()
		return cl.Complete(ctx, lease.ID, cells)
	})
	waitWorker(t, coord)

	id := submitAndWait(t, ts.URL, exactJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed exact report differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.LeasesCompleted != 3 || st.DigestMismatches != 0 {
		t.Fatalf("stats after distributed exact job: %+v, want 3 completed leases", st)
	}

	run, err := mustRunStore(t, runsDir).LoadRun(runID)
	if err != nil {
		t.Fatal(err)
	}
	all, err := utility.SelectedCells(run)
	if err != nil {
		t.Fatal(err)
	}
	// The exact plan's cells and exact FedSV's are both SelectedCells, so
	// the leases carry all of them and the worker paid every one: the
	// coordinator preloaded each cell it would otherwise have paid itself.
	_, met := getBody(t, ts.URL+"/v1/metrics")
	if got := cellMetric(t, met, "comfedsvd_cellcache_preloaded_total"); got != float64(len(all)) {
		t.Fatalf("comfedsvd_cellcache_preloaded_total = %v after the exact job, want all %d cells", got, len(all))
	}
	k := 3
	mu.Lock()
	defer mu.Unlock()
	for shard := 0; shard < k; shard++ {
		// Shard i owns the chunk [i·L/k, (i+1)·L/k) of the wave's list.
		cells := all[shard*len(all)/k : (shard+1)*len(all)/k]
		wantLease := utility.NewCellBatch(run.NumClients(), cells, make([]float64, len(cells)))
		if gotLease := leased[shard]; gotLease == nil || gotLease.Digest != wantLease.Digest || !reflect.DeepEqual(gotLease.Cells, wantLease.Cells) {
			t.Fatalf("shard %d leased %+v, want its chunk of SelectedCells %+v", shard, gotLease, wantLease)
		}
	}
}

// TestWorkerWrongCellsRejectedAndReleased pins the completion coverage
// check over HTTP: a worker that drops one leased cell from its first
// answer, then adds one to its second, gets a 422 each time; the shard is
// re-leased through the retry ladder, both rejections count as digest
// mismatches, and the report is byte-identical to local execution — the
// coordinator never pays a dropped cell itself.
func TestWorkerWrongCellsRejectedAndReleased(t *testing.T) {
	payload, _, _, _ := tinyJob(67)
	const seed = 67

	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, mcJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{
		Workers:        2,
		MaxTaskRetries: 5,
		RetryBaseDelay: 20 * time.Millisecond,
	})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := dispatch.NewClient(ts.URL, "sloppy")
	var mu sync.Mutex
	answers := 0
	var rejected []string
	go runWorkerWith(ctx, t, ts.URL, "sloppy", runsDir, func(lease *dispatch.Lease, cells *utility.CellBatch) error {
		mu.Lock()
		answers++
		n := answers
		mu.Unlock()
		var tamper string
		wrong := &utility.CellBatch{N: cells.N, Cells: slices.Clone(cells.Cells)}
		switch {
		case n == 1 && len(wrong.Cells) > 0:
			tamper, wrong.Cells = "dropped", wrong.Cells[1:]
		case n == 2:
			// Round 1000 is beyond every lease, so the cell is new.
			tamper, wrong.Cells = "added", append(wrong.Cells, utility.SnapshotCell{Round: 1000, Mask: 1, Value: 0.5})
		default:
			return cl.Complete(ctx, lease.ID, cells)
		}
		wrong.Stamp()
		err := cl.Complete(ctx, lease.ID, wrong)
		if err == nil || !strings.Contains(err.Error(), "422") {
			return fmt.Errorf("completion with %s cell: %v, want 422", tamper, err)
		}
		mu.Lock()
		rejected = append(rejected, tamper)
		mu.Unlock()
		return nil
	})
	waitWorker(t, coord)

	id := submitAndWait(t, ts.URL, mcJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("report after rejected completions differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	mu.Lock()
	if !reflect.DeepEqual(rejected, []string{"dropped", "added"}) {
		t.Fatalf("rejected completions %v, want a dropped and an added cell", rejected)
	}
	mu.Unlock()
	if st := coord.Stats(); st.DigestMismatches != 2 || st.LeasesCompleted != 3 {
		t.Fatalf("stats = %+v, want 2 mismatches and 3 completed leases", st)
	}
	code, metrics := getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK || !strings.Contains(string(metrics), "comfedsvd_dispatch_digest_mismatches_total 2") {
		t.Fatalf("GET metrics: %d, want digest mismatches 2 in\n%s", code, metrics)
	}
}

// TestFailingWorkerFinalAttemptRunsLocally pins the local fallback of the
// retry ladder: with one live worker that fails every lease, each shard is
// leased while it has retries left, and its final attempt runs locally, so
// the job finishes with the report of all-local execution instead of
// failing.
func TestFailingWorkerFinalAttemptRunsLocally(t *testing.T) {
	payload, _, _, _ := tinyJob(71)
	const seed, shards, retries = 71, 3, 2

	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, mcJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{
		Workers:        2,
		MaxTaskRetries: retries,
		RetryBaseDelay: time.Millisecond,
	})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := dispatch.NewClient(ts.URL, "failing")
	go runWorkerWith(ctx, t, ts.URL, "failing", runsDir, func(lease *dispatch.Lease, _ *utility.CellBatch) error {
		return cl.Fail(ctx, lease.ID, "injected worker failure")
	})
	waitWorker(t, coord)

	id := submitAndWait(t, ts.URL, mcJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("report with a failing worker differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.LeasesFailed != retries*shards || st.LeasesCompleted != 0 {
		t.Fatalf("stats = %+v, want %d failed and no completed leases", st, retries*shards)
	}
}

func mustRunStore(t *testing.T, dir string) *persist.RunStore {
	t.Helper()
	rs, err := persist.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st service.Status
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("distributed job did not finish in time")
}

// TestWorkerCompleteRejectsObservationsBody pins the one-payload wire: a
// completion body in the retired {"lease_id","observations"} shape is
// refused by the strict decoder with a 400, not mistaken for a lease
// result (an unknown lease alone would be a 409).
func TestWorkerCompleteRejectsObservationsBody(t *testing.T) {
	coord := dispatch.NewCoordinator(dispatch.Config{WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, t.TempDir(), coord, service.Config{Workers: 1})
	body := []byte(`{"lease_id":"lease-1","observations":{"lo":0,"hi":4,"cells":[{"round":0,"col":1,"value":0.5}],"digest":"0123456789abcdef"}}`)
	if code := postJSON(t, ts.URL+"/v1/worker/complete", body, nil); code != http.StatusBadRequest {
		t.Fatalf("POST /v1/worker/complete with an observations body: %d, want 400", code)
	}
}

// TestRemoteBatchRejectedByPreloadFailsJob pins the trust boundary past
// the wire: a completion whose batch verifies (canonical order, matching
// digest) and carries the lease's cells, but addresses a different client
// universe, is accepted by the coordinator, rejected by the preload into
// the job's evaluator, and fails the job instead of being observed.
func TestRemoteBatchRejectedByPreloadFailsJob(t *testing.T) {
	payload, _, _, _ := tinyJob(43)
	coord := dispatch.NewCoordinator(dispatch.Config{WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, t.TempDir(), coord, service.Config{Workers: 1})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := dispatch.NewClient(ts.URL, "liar")
	if _, err := cl.Register(ctx); err != nil {
		t.Fatalf("register: %v", err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", mcJobBody(t, runID, 43), &sub); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}
	lease, err := cl.Lease(ctx, 10*time.Second)
	if err != nil || lease == nil {
		t.Fatalf("lease: %v, %v", lease, err)
	}
	leased := lease.Task.Cells
	if len(leased.Cells) == 0 {
		t.Fatal("lease carries no cells")
	}
	bad := &utility.CellBatch{N: leased.N + 1, Cells: slices.Clone(leased.Cells)}
	for i := range bad.Cells {
		bad.Cells[i].Value = 0.5
	}
	bad.Stamp()
	if err := cl.Complete(ctx, lease.ID, bad); err != nil {
		t.Fatalf("complete: %v", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var st service.Status
		if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if st.State.Terminal() {
			if st.State != service.StateFailed || !strings.Contains(st.Error, "remote cell batch rejected") {
				t.Fatalf("job ended %s (%q), want failed on the rejected batch", st.State, st.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
