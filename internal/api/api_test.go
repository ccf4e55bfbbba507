package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/service"
)

// testDaemon is comfedsvd in-process: a real Manager behind the real
// route table, served by httptest.
func testDaemon(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	mgr, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// tinyJob is a small deterministic submission: four separable 2-D clients,
// two classes, exact pipeline.
func tinyJob(seed int64) ([]byte, []comfedsv.Client, comfedsv.Client, comfedsv.Options) {
	mk := func(off float64) comfedsv.Client {
		var c comfedsv.Client
		for i := 0; i < 8; i++ {
			x := off + float64(i)*0.3
			label := 0
			if x > 1 {
				label = 1
			}
			c.X = append(c.X, []float64{x, 1 - x})
			c.Y = append(c.Y, label)
		}
		return c
	}
	clients := []comfedsv.Client{mk(-0.4), mk(0.1), mk(0.6), mk(1.1)}
	test := mk(0.25)
	opts := comfedsv.DefaultOptions(2)
	opts.Rounds = 4
	opts.ClientsPerRound = 2
	opts.Seed = seed

	body := map[string]any{
		"test": map[string]any{"x": test.X, "y": test.Y},
		"options": map[string]any{
			"num_classes":       2,
			"rounds":            4,
			"clients_per_round": 2,
			"seed":              seed,
		},
	}
	var cs []map[string]any
	for _, c := range clients {
		cs = append(cs, map[string]any{"x": c.X, "y": c.Y})
	}
	body["clients"] = cs
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return raw, clients, test, opts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// submitAndWait drives the full client flow: POST the job, poll status to
// completion, return the job ID.
func submitAndWait(t *testing.T, base string, payload []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	if sub.ID == "" || sub.State != "queued" {
		t.Fatalf("submit response %+v", sub)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st service.Status
		if code := getJSON(t, base+"/v1/jobs/"+sub.ID, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			return sub.ID
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return ""
}

func TestDaemonEndToEnd(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 2})
	payload, clients, test, opts := tinyJob(11)

	id := submitAndWait(t, ts.URL, payload)

	var got comfedsv.Report
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/report", &got); code != http.StatusOK {
		t.Fatalf("GET report: %d", code)
	}
	want, err := comfedsv.Value(clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.FedSV, want.FedSV) {
		t.Fatalf("FedSV over HTTP %v, direct %v", got.FedSV, want.FedSV)
	}
	if !reflect.DeepEqual(got.ComFedSV, want.ComFedSV) {
		t.Fatalf("ComFedSV over HTTP %v, direct %v", got.ComFedSV, want.ComFedSV)
	}
	if got.UtilityCalls != want.UtilityCalls {
		t.Fatalf("UtilityCalls over HTTP %d, direct %d", got.UtilityCalls, want.UtilityCalls)
	}
}

func TestDaemonConcurrentJobs(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 4})
	payload, clients, test, opts := tinyJob(13)
	want, err := comfedsv.Value(clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 4
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := submitAndWait(t, ts.URL, payload)
			var got comfedsv.Report
			if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/report", &got); code != http.StatusOK {
				errs <- fmt.Errorf("GET report: %d", code)
				return
			}
			if !reflect.DeepEqual(got.ComFedSV, want.ComFedSV) {
				errs <- fmt.Errorf("job %s: ComFedSV %v, want %v", id, got.ComFedSV, want.ComFedSV)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDaemonValidation(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 1})

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d, want 400", code)
	}
	if code := post(`{"clients": [], "test": {"x": [], "y": []}, "options": {"num_classes": 2}}`); code != http.StatusBadRequest {
		t.Fatalf("empty clients: %d, want 400", code)
	}
	if code := post(`{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2, "model": "transformer"}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown model: %d, want 400", code)
	}
	if code := post(`{"bogus_field": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", code)
	}
	if code := post(`{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {}}`); code != http.StatusBadRequest {
		t.Fatalf("missing num_classes: %d, want 400", code)
	}
	if code := post(`{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2, "rounds": -5}}`); code != http.StatusBadRequest {
		t.Fatalf("negative rounds: %d, want 400", code)
	}
	if code := post(`{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2, "parallelism": -1}}`); code != http.StatusBadRequest {
		t.Fatalf("negative parallelism: %d, want 400", code)
	}
	if code := post(`{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2}}{"oops": 1}`); code != http.StatusBadRequest {
		t.Fatalf("trailing data: %d, want 400", code)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/job-doesnotexist", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-doesnotexist/report", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job report: %d, want 404", code)
	}
}

// holdPrepare is a fault hook that parks every job's prepare task until
// release yields, so a test can act on a job it knows is unfinished.
func holdPrepare(release <-chan struct{}) faultinject.Hook {
	return faultinject.Notify(faultinject.OpTask, "prepare", func(faultinject.Point) { <-release })
}

func TestDaemonReportBeforeDoneAndCancel(t *testing.T) {
	release := make(chan struct{})
	ts := testDaemon(t, service.Config{Workers: 1, FaultHook: holdPrepare(release)})

	payload, _, _, _ := tinyJob(1)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"/report", nil); code != http.StatusConflict {
		t.Fatalf("report of unfinished job: %d, want 409", code)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs/"+sub.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d, want 200", resp.StatusCode)
	}
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		var st service.Status
		getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State.Terminal() {
			if st.State != service.StateFailed {
				t.Fatalf("cancelled job ended %s", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never became terminal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"/report", nil); code != http.StatusGone {
		t.Fatalf("report of cancelled job: %d, want 410", code)
	}
}

func TestDaemonHealthAndList(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 2})
	var health struct {
		Status  string         `json:"status"`
		Workers int            `json:"workers"`
		Jobs    map[string]int `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || health.Workers != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	payload, _, _, _ := tinyJob(5)
	id := submitAndWait(t, ts.URL, payload)

	var list struct {
		Jobs []service.Status `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("list = %+v, want the one submitted job", list.Jobs)
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Jobs["done"] != 1 {
		t.Fatalf("healthz jobs = %v, want done=1", health.Jobs)
	}
}

// postJSON POSTs a body and decodes the JSON response.
func postJSON(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// getBody fetches a URL and returns the raw response bytes — the tool for
// byte-identity assertions on reports.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitRunReady polls a run's status until it leaves the training state,
// failing the test if it ends up failed.
func waitRunReady(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st service.RunStatus
		if code := getJSON(t, base+"/v1/runs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET run status: %d", code)
		}
		switch st.State {
		case service.RunReady:
			return
		case service.RunFailed:
			t.Fatalf("run failed: %s", st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("run never became ready")
}

// TestDaemonSharedRunEndToEnd is the acceptance walkthrough of the shared-
// run surface: register one run, submit two jobs against it plus their
// inline-config equivalents, and require (1) byte-identical report bodies
// between each run-backed job and its inline twin, (2) a nonzero
// cache-hit counter on the second run-backed job, and (3) run counters
// that show the amortization.
func TestDaemonSharedRunEndToEnd(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 2})
	payload, _, _, _ := tinyJob(31)

	var created struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Created bool   `json:"created"`
	}
	if code := postJSON(t, ts.URL+"/v1/runs", payload, &created); code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d", code)
	}
	if created.ID == "" || !created.Created || created.State != "training" {
		t.Fatalf("create response %+v", created)
	}
	// Idempotent re-registration: 200, same ID, no second training.
	var again struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if code := postJSON(t, ts.URL+"/v1/runs", payload, &again); code != http.StatusOK {
		t.Fatalf("duplicate POST /v1/runs: %d", code)
	}
	if again.ID != created.ID || again.Created {
		t.Fatalf("duplicate create response %+v, want dedup onto %s", again, created.ID)
	}
	waitRunReady(t, ts.URL, created.ID)

	// The run-backed submission reuses the inline options minus the data.
	runJobBody := []byte(fmt.Sprintf(
		`{"run_id": %q, "options": {"num_classes": 2, "rounds": 4, "clients_per_round": 2, "seed": 31}}`,
		created.ID))

	type jobResult struct {
		id     string
		report []byte
		stats  *comfedsv.EvalStats
	}
	runJob := func(body []byte) jobResult {
		id := submitAndWait(t, ts.URL, body)
		code, rep := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
		if code != http.StatusOK {
			t.Fatalf("GET report: %d", code)
		}
		var st service.Status
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		return jobResult{id: id, report: rep, stats: st.CacheStats}
	}

	first := runJob(runJobBody)
	second := runJob(runJobBody)
	inline1 := runJob(payload)
	inline2 := runJob(payload)

	if !bytes.Equal(first.report, inline1.report) {
		t.Fatalf("first run-backed report differs from inline equivalent:\n%s\nvs\n%s", first.report, inline1.report)
	}
	if !bytes.Equal(second.report, inline2.report) {
		t.Fatalf("second run-backed report differs from inline equivalent:\n%s\nvs\n%s", second.report, inline2.report)
	}
	if first.stats == nil || first.stats.Misses == 0 {
		t.Fatalf("first run-backed job cache stats %+v, want misses on a cold cache", first.stats)
	}
	if second.stats == nil || second.stats.Hits == 0 || second.stats.Misses != 0 {
		t.Fatalf("second run-backed job cache stats %+v, want a nonzero hit counter and no misses", second.stats)
	}
	if inline1.stats != nil {
		t.Fatalf("inline job unexpectedly carries shared-cache stats %+v", inline1.stats)
	}

	var rs service.RunStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+created.ID, &rs); code != http.StatusOK {
		t.Fatalf("GET run status: %d", code)
	}
	if rs.CacheHits == 0 || rs.CacheMisses == 0 {
		t.Fatalf("run counters %+v, want nonzero hits and misses after two shared jobs", rs)
	}
	var list struct {
		Runs []service.RunStatus `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/runs: %d", code)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != created.ID {
		t.Fatalf("run list %+v, want the one registered run", list.Runs)
	}

	var health struct {
		Runs map[string]int `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Runs["ready"] != 1 {
		t.Fatalf("healthz runs = %v, want ready=1", health.Runs)
	}
}

func TestDaemonRunValidationAndDelete(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 1})

	if code := postJSON(t, ts.URL+"/v1/runs", []byte(`{"clients": [], "test": {"x": [], "y": []}, "options": {"num_classes": 2}}`), nil); code != http.StatusBadRequest {
		t.Fatalf("empty clients: %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/runs", []byte(`{not json`), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/run-doesnotexist", nil); code != http.StatusNotFound {
		t.Fatalf("unknown run status: %d, want 404", code)
	}

	// Jobs referencing unknown runs are 404; mixing run_id with inline
	// data is 400; options without num_classes are fine for run-backed
	// jobs but still rejected inline.
	if code := postJSON(t, ts.URL+"/v1/jobs", []byte(`{"run_id": "run-doesnotexist", "options": {}}`), nil); code != http.StatusNotFound {
		t.Fatalf("job on unknown run: %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", []byte(`{"run_id": "run-x", "clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2}}`), nil); code != http.StatusBadRequest {
		t.Fatalf("run_id plus inline clients: %d, want 400", code)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/run-doesnotexist", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown run: %d, want 404", resp.StatusCode)
	}
}

// TestDaemonDeleteRunConflict pins the 409-while-referenced contract over
// HTTP: a run with an in-flight job refuses deletion, then deletes
// cleanly once the job finishes.
func TestDaemonDeleteRunConflict(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := testDaemon(t, service.Config{Workers: 1, FaultHook: holdPrepare(release)})
	payload, _, _, _ := tinyJob(33)
	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/runs", payload, &created); code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d", code)
	}
	waitRunReady(t, ts.URL, created.ID)

	jobBody := []byte(fmt.Sprintf(`{"run_id": %q, "options": {"seed": 33}}`, created.ID))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(jobBody))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	del := func() int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+created.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusConflict {
		t.Fatalf("DELETE while job in flight: %d, want 409", code)
	}

	release <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st service.Status
		getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code := del(); code != http.StatusNoContent {
		t.Fatalf("DELETE after jobs drained: %d, want 204", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+created.ID, nil); code != http.StatusNotFound {
		t.Fatalf("deleted run status: %d, want 404", code)
	}
}

// TestDaemonShardsByteIdenticalEndToEnd is the HTTP-layer determinism
// acceptance test of the stage-graph scheduler: the same Monte-Carlo
// submission with shards 1, 2, and 8 must produce byte-identical report
// bodies, and the status must surface the per-shard accounting.
func TestDaemonShardsByteIdenticalEndToEnd(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 3})

	submit := func(shards int) (string, []byte) {
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
		id := submitAndWait(t, ts.URL, raw)
		code, rep := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
		if code != http.StatusOK {
			t.Fatalf("GET report: %d", code)
		}
		return id, rep
	}

	id1, want := submit(1)
	for _, shards := range []int{2, 8} {
		id, got := submit(shards)
		if !bytes.Equal(want, got) {
			t.Fatalf("shards=%d report differs from shards=1:\n%s\nvs\n%s", shards, got, want)
		}
		var st service.Status
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if st.Shards != shards || st.ShardsDone != shards {
			t.Fatalf("shards=%d status accounting %d/%d", shards, st.ShardsDone, st.Shards)
		}
	}
	var st service.Status
	getJSON(t, ts.URL+"/v1/jobs/"+id1, &st)
	if st.Shards != 1 {
		t.Fatalf("shards=1 job reports %d shards", st.Shards)
	}

	// The shards knob is validated like the other counters.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewBufferString(`{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2, "shards": -1}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative shards: %d, want 400", resp.StatusCode)
	}
}

// TestDaemonDeleteJob pins the DELETE /v1/jobs/{id} surface: 409 while the
// job runs, 204 once terminal, 404 afterwards and for unknown jobs.
func TestDaemonDeleteJob(t *testing.T) {
	release := make(chan struct{})
	ts := testDaemon(t, service.Config{Workers: 1, FaultHook: holdPrepare(release)})

	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("job-doesnotexist"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d, want 404", code)
	}

	payload, _, _, _ := tinyJob(39)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var st service.Status
		getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code := del(sub.ID); code != http.StatusConflict {
		t.Fatalf("DELETE running job: %d, want 409", code)
	}
	close(release)
	deadline = time.Now().Add(10 * time.Second)
	for {
		var st service.Status
		getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if code := del(sub.ID); code != http.StatusNoContent {
		t.Fatalf("DELETE terminal job: %d, want 204", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", code)
	}
	if code := del(sub.ID); code != http.StatusNotFound {
		t.Fatalf("second DELETE: %d, want 404", code)
	}
}

// TestDaemonMetricsEndpoint checks /v1/metrics renders Prometheus text
// with the scheduler counters after a sharded job ran.
func TestDaemonMetricsEndpoint(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 2, DefaultShards: 2})
	_, clients, test, _ := tinyJob(43)
	body := map[string]any{
		"test": map[string]any{"x": test.X, "y": test.Y},
		"options": map[string]any{
			"num_classes":         2,
			"rounds":              4,
			"clients_per_round":   2,
			"seed":                43,
			"monte_carlo_samples": 20,
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
	submitAndWait(t, ts.URL, raw)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q, want text/plain exposition", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`comfedsvd_jobs{state="done"} 1`,
		`comfedsvd_jobs{state="failed"} 0`,
		`comfedsvd_queue_depth 0`,
		`comfedsvd_tasks_executed_total{stage="prepare"} 1`,
		`comfedsvd_tasks_executed_total{stage="observe"} 2`,
		`comfedsvd_tasks_executed_total{stage="complete"} 1`,
		`comfedsvd_tasks_executed_total{stage="shapley"} 1`,
		`comfedsvd_shard_tasks_executed_total 2`,
		`comfedsvd_jobs_evicted_total 0`,
		"# TYPE comfedsvd_task_retries_total counter",
		`comfedsvd_jobs_recovered_total 0`,
		`comfedsvd_jobs_rejected_total 0`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// submittedParallelism is a slog handler keeping the parallelism
// attribute of every "job submitted" record: the effective Options the
// job's pipeline runs with.
type submittedParallelism struct {
	mu   sync.Mutex
	seen []int
}

func (h *submittedParallelism) Enabled(context.Context, slog.Level) bool { return true }
func (h *submittedParallelism) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "job submitted" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "parallelism" {
			h.mu.Lock()
			h.seen = append(h.seen, int(a.Value.Int64()))
			h.mu.Unlock()
		}
		return true
	})
	return nil
}
func (h *submittedParallelism) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *submittedParallelism) WithGroup(string) slog.Handler      { return h }

// TestDaemonParallelismOption checks the parallelism knob end to end: an
// explicit "parallelism" field reaches the pipeline's Options, and an
// absent one picks up the daemon's configured default.
func TestDaemonParallelismOption(t *testing.T) {
	h := &submittedParallelism{}
	cfg := service.Config{
		Workers:            1,
		DefaultParallelism: 3,
		Logger:             slog.New(h),
	}
	ts := testDaemon(t, cfg)

	explicit := `{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2, "clients_per_round": 1, "parallelism": 2}}`
	submitAndWait(t, ts.URL, []byte(explicit))
	defaulted := `{"clients": [{"x": [[1]], "y": [0]}], "test": {"x": [[1]], "y": [0]}, "options": {"num_classes": 2, "clients_per_round": 1}}`
	submitAndWait(t, ts.URL, []byte(defaulted))

	h.mu.Lock()
	defer h.mu.Unlock()
	if seen := h.seen; len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("pipeline saw parallelism %v, want [2 3]", seen)
	}
}
