package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
)

// crashableDaemon is testDaemon with the manager exposed, so a test can
// abandon a "crashed" daemon and start a fresh one over the same store.
func crashableDaemon(t *testing.T, cfg service.Config) (*httptest.Server, *service.Manager) {
	t.Helper()
	mgr, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return ts, mgr
}

// shardedJob builds a Monte-Carlo submission body with the given shard
// count; everything else is pinned so reports are comparable across
// shard counts and daemon restarts.
func shardedJob(t *testing.T, shards int) []byte {
	t.Helper()
	_, clients, test, _ := tinyJob(37)
	body := map[string]any{
		"test": map[string]any{"x": test.X, "y": test.Y},
		"options": map[string]any{
			"num_classes":         2,
			"rounds":              4,
			"clients_per_round":   2,
			"seed":                37,
			"monte_carlo_samples": 30,
			"shards":              shards,
			"parallelism":         2,
		},
	}
	var cs []map[string]any
	for _, c := range clients {
		cs = append(cs, map[string]any{"x": c.X, "y": c.Y})
	}
	body["clients"] = cs
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// submitOnly POSTs a job and returns its ID without waiting.
func submitOnly(t *testing.T, base string, payload []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// pollUntil polls a job's status until pred holds, failing on timeout.
func pollUntil(t *testing.T, base, id string, pred func(service.Status) bool) service.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st service.Status
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never reached")
	return service.Status{}
}

// TestDaemonKillAndRestartResumesByteIdentical is the satellite e2e: a
// daemon killed mid-wave by fault injection, restarted over the same
// store directory, resumes the interrupted job and serves a report
// byte-identical to an uninterrupted daemon's — for 1, 2, and 8 shards.
func TestDaemonKillAndRestartResumesByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		payload := shardedJob(t, shards)

		// Uninterrupted baseline.
		tsBase, _ := crashableDaemon(t, service.Config{Workers: 3})
		baseID := submitAndWait(t, tsBase.URL, payload)
		code, want := getBody(t, tsBase.URL+"/v1/jobs/"+baseID+"/report")
		if code != http.StatusOK {
			t.Fatalf("shards=%d baseline report: %d", shards, code)
		}

		// The daemon that dies mid-wave: simulated process death right
		// after the first observation shard's journal record is durable.
		dir := t.TempDir()
		store, err := persist.NewJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		tsCrash, _ := crashableDaemon(t, service.Config{
			Workers:   3,
			Store:     store,
			FaultHook: faultinject.CrashNth(faultinject.OpJournalAfter, "observe", 1),
		})
		id := submitOnly(t, tsCrash.URL, payload)
		st := pollUntil(t, tsCrash.URL, id, func(st service.Status) bool { return st.State.Terminal() })
		if st.State != service.StateFailed || !strings.Contains(st.Error, "simulated crash") {
			t.Fatalf("shards=%d crashed job: state %s error %q", shards, st.State, st.Error)
		}
		tsCrash.Close()

		// Restart on the same directory: the job resumes without being
		// resubmitted and finishes with the identical report.
		store2, err := persist.NewJobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		tsNew, _ := crashableDaemon(t, service.Config{Workers: 3, Store: store2})
		st = pollUntil(t, tsNew.URL, id, func(st service.Status) bool { return st.State.Terminal() })
		if st.State != service.StateDone {
			t.Fatalf("shards=%d resumed job finished %s (%s)", shards, st.State, st.Error)
		}
		code, got := getBody(t, tsNew.URL+"/v1/jobs/"+id+"/report")
		if code != http.StatusOK {
			t.Fatalf("shards=%d resumed report: %d", shards, code)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d resumed report differs from uninterrupted daemon:\n%s\nvs\n%s", shards, got, want)
		}

		resp, err := http.Get(tsNew.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(text), "comfedsvd_jobs_recovered_total 1") {
			t.Fatalf("shards=%d restarted daemon metrics missing recovery count:\n%s", shards, text)
		}
	}
}

// TestDaemonQueueFullReturns429WithRetryAfter pins the backpressure
// contract: a full queue answers 429 Too Many Requests with a Retry-After
// hint (not 503, which now means shutdown), and the rejection shows up in
// /v1/metrics.
func TestDaemonQueueFullReturns429WithRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 1)
	ts, _ := crashableDaemon(t, service.Config{
		Workers:    1,
		QueueDepth: 1,
		FaultHook: faultinject.Notify(faultinject.OpTask, "prepare", func(faultinject.Point) {
			started <- struct{}{}
			<-gate
		}),
	})
	raw, _, _, _ := tinyJob(1)
	submitOnly(t, ts.URL, raw) // occupies the worker
	<-started
	submitOnly(t, ts.URL, raw) // fills the queue

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue submission: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if !strings.Contains(string(body), "queue is full") {
		t.Fatalf("429 body %q does not explain the rejection", body)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(text), "comfedsvd_jobs_rejected_total 1") {
		t.Fatalf("metrics missing rejection count:\n%s", text)
	}
}

// TestDaemonRetriesSurfaceInStatusAndMetrics pins the operator view of
// the retry ladder: a transiently failing shard shows up as retries and
// last_error in the job's status JSON and as a labelled counter in
// /v1/metrics.
func TestDaemonRetriesSurfaceInStatusAndMetrics(t *testing.T) {
	ts, _ := crashableDaemon(t, service.Config{
		Workers:        2,
		MaxTaskRetries: 3,
		RetryBaseDelay: time.Millisecond,
		FaultHook:      faultinject.FailNth("observe", 1),
	})
	id := submitAndWait(t, ts.URL, shardedJob(t, 2))
	var st service.Status
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("GET status: %d", code)
	}
	if st.Retries != 1 || !strings.Contains(st.LastError, "faultinject") {
		t.Fatalf("status retries=%d last_error=%q, want the injected retry visible", st.Retries, st.LastError)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), `comfedsvd_task_retries_total{stage="observe"} 1`) {
		t.Fatalf("metrics missing retry counter:\n%s", text)
	}
}
