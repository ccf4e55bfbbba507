package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
)

// cellMetric parses one unlabeled counter sample out of a Prometheus text
// exposition, failing if the family is missing, lacks its HELP/TYPE
// header, or does not parse — a minimal exposition-format parser so a
// malformed rendering cannot slip through a substring check.
func cellMetric(t *testing.T, text []byte, name string) float64 {
	t.Helper()
	var help, typ bool
	value := -1.0
	for _, line := range strings.Split(string(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "+name+" "):
			help = true
		case strings.HasPrefix(line, "# TYPE "+name+" counter"):
			typ = true
		case strings.HasPrefix(line, name+" "):
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("metric %s sample %q does not parse: %v", name, line, err)
			}
			value = v
		}
	}
	if !help || !typ {
		t.Fatalf("metric %s missing HELP/TYPE header (help=%v type=%v)", name, help, typ)
	}
	if value < 0 {
		t.Fatalf("metric %s has no sample", name)
	}
	return value
}

func daemonMetrics(t *testing.T, base string) []byte {
	t.Helper()
	code, body := getBody(t, base+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", code)
	}
	return body
}

// TestCellCacheMetricsExposition runs a run-backed job cold, restarts the
// daemon over the same run store, runs it warm, and checks the four
// comfedsvd_cellcache_* families through the exposition parser at both
// temperatures.
func TestCellCacheMetricsExposition(t *testing.T) {
	runsDir := t.TempDir()
	payload, _, _, _ := tinyJob(53)

	ts1 := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, runsDir)})
	runID := registerRun(t, ts1.URL, payload)
	id1 := submitAndWait(t, ts1.URL, mcJobBody(t, runID, 53))
	code, want := getBody(t, ts1.URL+"/v1/jobs/"+id1+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET cold report: %d", code)
	}
	met1 := daemonMetrics(t, ts1.URL)
	if v := cellMetric(t, met1, "comfedsvd_cellcache_persisted_total"); v == 0 {
		t.Fatal("cold daemon persisted no cells")
	}
	if v := cellMetric(t, met1, "comfedsvd_cellcache_preloaded_total"); v != 0 {
		t.Fatalf("cold daemon preloaded %v cells, want 0", v)
	}
	if v := cellMetric(t, met1, "comfedsvd_cellcache_corrupt_total"); v != 0 {
		t.Fatalf("cold daemon quarantined %v sidecars, want 0", v)
	}

	// Restart: a fresh daemon over the same run store warm-starts from the
	// sidecar and serves the identical job byte-identically.
	ts2 := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, runsDir)})
	id2 := submitAndWait(t, ts2.URL, mcJobBody(t, runID, 53))
	code, got := getBody(t, ts2.URL+"/v1/jobs/"+id2+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET warm report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("warm report over HTTP is not byte-identical:\n%s\nvs\n%s", got, want)
	}
	met2 := daemonMetrics(t, ts2.URL)
	if v := cellMetric(t, met2, "comfedsvd_cellcache_preloaded_total"); v == 0 {
		t.Fatal("restarted daemon preloaded no cells")
	}
	if v := cellMetric(t, met2, "comfedsvd_cellcache_hit_total"); v == 0 {
		t.Fatal("warm job served no cache hits")
	}
	if v := cellMetric(t, met2, "comfedsvd_cellcache_corrupt_total"); v != 0 {
		t.Fatalf("restart quarantined %v sidecars, want 0", v)
	}
}

// bigJob is a 22-client full-participation run. The width matters: with
// ClientsPerRound ≤ 20 the FedSV baseline enumerates every subset of
// each round's selection during Prepare — before observation dispatches —
// so a remote worker's observation cells are always already cached on
// the daemon and a worker batch can never contribute anything new. Above
// 20 selected clients FedSV degrades to its sampled estimator (a
// different seed stream than the observation plan), so the cells workers
// evaluate are genuinely absent from the daemon's evaluator and the
// absorb path becomes observable.
func bigJob(seed int64) []byte {
	mk := func(off float64) map[string]any {
		var xs [][]float64
		var ys []int
		for i := 0; i < 8; i++ {
			x := off + float64(i)*0.3
			label := 0
			if x > 1 {
				label = 1
			}
			xs = append(xs, []float64{x, 1 - x})
			ys = append(ys, label)
		}
		return map[string]any{"x": xs, "y": ys}
	}
	var cs []map[string]any
	for i := 0; i < 22; i++ {
		cs = append(cs, mk(-0.5+0.1*float64(i)))
	}
	raw, err := json.Marshal(map[string]any{
		"clients": cs,
		"test":    mk(0.25),
		"options": map[string]any{
			"num_classes":       2,
			"rounds":            2,
			"clients_per_round": 22,
			"seed":              seed,
		},
	})
	if err != nil {
		panic(err)
	}
	return raw
}

// bigMCJobBody is the sharded Monte-Carlo submission over bigJob's run.
func bigMCJobBody(t *testing.T, runID string, seed int64) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"run_id": runID,
		"options": map[string]any{
			"num_classes":         2,
			"rounds":              2,
			"clients_per_round":   22,
			"seed":                seed,
			"monte_carlo_samples": 10,
			"shards":              3,
			"parallelism":         2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// runCellWorker is cmd/comfedsv-worker's warm-start loop in-process: it
// keys its trace cache by run ID alone, hydrates the evaluator from the
// shared store's cell sidecar, and pays each lease's cells and reports
// them as one stamped batch.
// Closing ready signals that the worker is registered, so the test can
// submit knowing the shards will go remote instead of falling back local.
func runCellWorker(ctx context.Context, t *testing.T, base, id, runsDir string, ready chan<- struct{}) {
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
	close(ready)
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
			batches, err := runs.ReadCells(task.RunID)
			if err == nil {
				for _, b := range batches {
					if _, perr := tr.PreloadCells(b); perr != nil {
						break
					}
				}
			}
			trained[task.RunID] = tr
		}
		cells, err := tr.PayCells(ctx, task.Cells, 2)
		if err != nil {
			cl.Fail(ctx, lease.ID, err.Error())
			continue
		}
		if err := cl.Complete(ctx, lease.ID, cells); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: complete: %v", id, err)
		}
	}
}

// TestDistributedBigJobByteIdenticalToLocal pins local-vs-distributed
// byte identity where a round selects more than 20 clients: FedSV then
// samples instead of enumerating, so the cells a remote shard reaches are
// absent from the daemon's evaluator when the batch arrives. The
// coordinator still observes the shard through its own evaluator, so
// utility_calls — and every other report byte — match the local run, and
// the batches reach the run's sidecar.
func TestDistributedBigJobByteIdenticalToLocal(t *testing.T) {
	const seed = 59
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
	ready := make(chan struct{})
	go runCellWorker(ctx, t, ts.URL, "w1", runsDir, ready)
	<-ready

	id := submitAndWait(t, ts.URL, bigMCJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed report differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.LeasesCompleted != 3 || st.DigestMismatches != 0 {
		t.Fatalf("stats after distributed run: %+v, want 3 completed leases", st)
	}
	met := daemonMetrics(t, ts.URL)
	if v := cellMetric(t, met, "comfedsvd_cellcache_preloaded_total"); v == 0 {
		t.Fatal("remote batches were not preloaded")
	}
	if !mustRunStore(t, runsDir).HasCells(runID) {
		t.Fatal("no sidecar written for the remote batches")
	}
}

// TestRemoteWorkerCellCacheWarmStart closes the distributed loop: a
// worker's evaluated cells travel back over the completion wire, the
// coordinator daemon persists them to the run's sidecar, and both a
// restarted daemon and a fresh worker warm-start from that sidecar — with
// the report byte-identical at every temperature.
func TestRemoteWorkerCellCacheWarmStart(t *testing.T) {
	runsDir := t.TempDir()
	const seed = 59
	payload := bigJob(seed)

	coord1 := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	ts1 := dispatchDaemon(t, runsDir, coord1, service.Config{Workers: 2})
	runID := registerRun(t, ts1.URL, payload)

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ready1 := make(chan struct{})
	go runCellWorker(ctx1, t, ts1.URL, "w1", runsDir, ready1)
	<-ready1

	id1 := submitAndWait(t, ts1.URL, bigMCJobBody(t, runID, seed))
	code, want := getBody(t, ts1.URL+"/v1/jobs/"+id1+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET cold report: %d", code)
	}
	met1 := daemonMetrics(t, ts1.URL)
	if v := cellMetric(t, met1, "comfedsvd_cellcache_persisted_total"); v == 0 {
		t.Fatal("worker-evaluated cells never reached the daemon's sidecar")
	}
	if v := cellMetric(t, met1, "comfedsvd_cellcache_preloaded_total"); v == 0 {
		t.Fatal("worker batches were not absorbed into the daemon's evaluator")
	}
	cancel1()

	store, err := persist.NewRunStore(runsDir)
	if err != nil {
		t.Fatal(err)
	}
	if !store.HasCells(runID) {
		t.Fatal("no cell sidecar in the shared run store after the distributed job")
	}

	// Restart daemon and worker over the same store: observation runs
	// entirely warm on the worker, daemon stages warm from the sidecar.
	coord2 := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	ts2 := dispatchDaemon(t, runsDir, coord2, service.Config{Workers: 2})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ready2 := make(chan struct{})
	go runCellWorker(ctx2, t, ts2.URL, "w2", runsDir, ready2)
	<-ready2

	id2 := submitAndWait(t, ts2.URL, bigMCJobBody(t, runID, seed))
	code, got := getBody(t, ts2.URL+"/v1/jobs/"+id2+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET warm report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("warm distributed report is not byte-identical:\n%s\nvs\n%s", got, want)
	}
	met2 := daemonMetrics(t, ts2.URL)
	if v := cellMetric(t, met2, "comfedsvd_cellcache_preloaded_total"); v == 0 {
		t.Fatal("restarted daemon preloaded nothing from the shared sidecar")
	}
	if v := cellMetric(t, met2, "comfedsvd_cellcache_hit_total"); v == 0 {
		t.Fatal("warm distributed job served no cache hits")
	}
}
