package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"comfedsv"
	"comfedsv/internal/api"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
)

const (
	httpClients = 2                    // closed-loop HTTP callers
	pollEvery   = 5 * time.Millisecond // status poll interval
	verifyJobs  = 3                    // timed jobs re-valued in-process after the window
)

// daemon is an in-process comfedsvd: a service.Manager with a job store
// and a run store on disk, served by api.Server on a loopback port.
type daemon struct {
	mgr    *service.Manager
	runs   *persist.RunStore
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startDaemon(dir string, hook faultinject.Hook) (*daemon, error) {
	jobs, err := persist.NewJobStore(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	runs, err := persist.NewRunStore(filepath.Join(dir, "runs"))
	if err != nil {
		return nil, err
	}
	mgr, err := service.NewManager(service.Config{Store: jobs, RunStore: runs, FaultHook: hook})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		mgr:    mgr,
		runs:   runs,
		srv:    &http.Server{Handler: api.NewServer(mgr).Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * httpClients}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server and the manager down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.mgr.Shutdown(ctx)
}

// call makes one request and returns the status code and body. Any
// non-2xx answer is an error.
func (d *daemon) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &non2xx{method: method, path: path, code: resp.StatusCode}
	}
	return out, nil
}

type non2xx struct {
	method, path string
	code         int
}

func (e *non2xx) Error() string { return fmt.Sprintf("%s %s answered %d", e.method, e.path, e.code) }

// createRun registers the shared run over HTTP and waits until it is ready.
func (d *daemon) createRun(body []byte) (string, error) {
	out, err := d.call(http.MethodPost, "/v1/runs", body)
	if err != nil {
		return "", err
	}
	var created struct{ ID string }
	if err := json.Unmarshal(out, &created); err != nil {
		return "", err
	}
	for {
		out, err := d.call(http.MethodGet, "/v1/runs/"+created.ID, nil)
		if err != nil {
			return "", err
		}
		var st service.RunStatus
		if err := json.Unmarshal(out, &st); err != nil {
			return "", err
		}
		switch st.State {
		case service.RunReady:
			return created.ID, nil
		case service.RunFailed:
			return "", fmt.Errorf("shared run failed: %s", st.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// httpJob is one job's client-side record.
type httpJob struct {
	seed                  int64
	start, submitted, end time.Time
	reportStart           time.Time
	polls                 [][2]time.Time
	status                service.Status
	report                []byte
}

// runJob submits one run-backed job, polls its status until it is
// terminal, and fetches its report.
func (d *daemon) runJob(body []byte, seed int64) (*httpJob, error) {
	j := &httpJob{seed: seed, start: time.Now()}
	out, err := d.call(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return j, err
	}
	j.submitted = time.Now()
	var sub struct{ ID string }
	if err := json.Unmarshal(out, &sub); err != nil {
		return j, err
	}
	for !j.status.State.Terminal() {
		time.Sleep(pollEvery)
		p0 := time.Now()
		out, err := d.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil)
		j.polls = append(j.polls, [2]time.Time{p0, time.Now()})
		if err != nil {
			return j, err
		}
		if err := json.Unmarshal(out, &j.status); err != nil {
			return j, err
		}
	}
	if j.status.State != service.StateDone {
		return j, fmt.Errorf("job %s: %s", j.status.State, j.status.Error)
	}
	if j.status.Retries != 0 {
		return j, fmt.Errorf("job needed %d task retries", j.status.Retries)
	}
	j.reportStart = time.Now()
	if j.report, err = d.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/report", nil); err != nil {
		return j, err
	}
	j.end = time.Now()
	return j, nil
}

// fsyncLog records the journal and cell-sidecar appends the manager's
// fault hook reports. The hook only takes timestamps and never injects a
// fault. Journal appends are kept per job so they can be attached to the
// job's trace; sidecar appends are keyed by run and paired in order.
type fsyncLog struct {
	mu       sync.Mutex
	open     map[string]time.Time
	journal  map[string][][2]time.Time
	jCount   int
	jTotal   time.Duration
	cellsQ   []time.Time
	cCount   int
	cTotal   time.Duration
	counting bool
}

func newFsyncLog() *fsyncLog {
	return &fsyncLog{open: map[string]time.Time{}, journal: map[string][][2]time.Time{}}
}

func (l *fsyncLog) hook(p faultinject.Point) error {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch p.Op {
	case faultinject.OpJournalBefore:
		l.open[p.JobID] = now
	case faultinject.OpJournalAfter:
		start, ok := l.open[p.JobID]
		if !ok {
			return nil
		}
		delete(l.open, p.JobID)
		l.journal[p.JobID] = append(l.journal[p.JobID], [2]time.Time{start, now})
		if l.counting {
			l.jCount++
			l.jTotal += now.Sub(start)
		}
	case faultinject.OpCellsBefore:
		l.cellsQ = append(l.cellsQ, now)
	case faultinject.OpCellsAfter:
		if len(l.cellsQ) == 0 {
			return nil
		}
		start := l.cellsQ[0]
		l.cellsQ = l.cellsQ[1:]
		if l.counting {
			l.cCount++
			l.cTotal += now.Sub(start)
		}
	}
	return nil
}

// take removes and returns the journal appends recorded for a job.
func (l *fsyncLog) take(id string) [][2]time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.journal[id]
	delete(l.journal, id)
	return out
}

func (l *fsyncLog) setCounting(on bool) {
	l.mu.Lock()
	l.counting = on
	l.mu.Unlock()
}

// durableHTTP drives the daemon path: two closed-loop HTTP clients submit
// run-backed adaptive jobs, each with a fresh seed, against a manager that
// journals every job and persists new utility cells.
func durableHTTP(e *env) (*run, error) {
	const (
		fedClients = 24
		budget     = 48
		tolerance  = 0.02
		shards     = 2
		setups     = 9
	)
	fed, test := synthFederation(e.seed, fedClients, 40, 8, 20)
	runOpts := map[string]any{"num_classes": 10, "rounds": 6, "clients_per_round": 3, "seed": e.seed}
	runBody, err := json.Marshal(map[string]any{"clients": wireClients(fed), "test": wireClient(test), "options": runOpts})
	if err != nil {
		return nil, err
	}

	var log *fsyncLog
	var hook faultinject.Hook
	if e.traced {
		log = newFsyncLog()
		hook = log.hook
	}
	r := &run{layer: map[string]float64{}}
	var d *daemon
	var runID string
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon(filepath.Join(e.dir, fmt.Sprintf("daemon%d", i)), hook); err != nil {
			return nil, err
		}
		if runID, err = d.createRun(runBody); err != nil {
			d.stop()
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start))
	}
	defer d.stop()

	jobBody := func(seed int64) []byte {
		b, _ := json.Marshal(map[string]any{"run_id": runID, "options": map[string]any{
			"monte_carlo_samples": budget, "tolerance": tolerance, "shards": shards,
			"parallelism": 1, "seed": seed,
		}})
		return b
	}
	var next atomic.Int64
	nextSeed := func() (int, int64) {
		n := int(next.Add(1) - 1)
		return n, e.seed*1_000_000 + int64(n)
	}
	// Warm-up: two untimed jobs per client.
	for i := 0; i < 2*httpClients; i++ {
		_, seed := nextSeed()
		_, err := d.runJob(jobBody(seed), seed)
		r.tally.record(err)
	}

	var (
		mu       sync.Mutex
		done     []*httpJob
		finished atomic.Int64
		non2     atomic.Int64
		wg       sync.WaitGroup
	)
	logReady()
	before := d.mgr.Metrics()
	if log != nil {
		log.setCounting(true)
	}
	deadline := time.Now().Add(e.window)
	hardStop := time.Now().Add(3 * e.window)
	r.win.open()
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && finished.Load() >= int64(minJobs)) {
					return
				}
				n, seed := nextSeed()
				traced := e.traced && n%2 == 1
				j, err := d.runJob(jobBody(seed), seed)
				if err != nil {
					j.end = time.Now()
				}
				r.tally.record(err)
				if _, ok := err.(*non2xx); ok {
					non2.Add(1)
				}
				r.win.jobDone(int(finished.Add(1)))
				mu.Lock()
				if traced {
					r.tracedLats = append(r.tracedLats, j.end.Sub(j.start))
				} else {
					r.lats = append(r.lats, j.end.Sub(j.start))
				}
				if err == nil {
					done = append(done, j)
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				if traced {
					traceHTTPJob(e.tr, n, j, log.take(j.status.ID))
				} else if log != nil {
					log.take(j.status.ID)
				}
			}
		}()
	}
	wg.Wait()
	r.win.closeAt(time.Now())
	if log != nil {
		log.setCounting(false)
	}
	after := d.mgr.Metrics()
	if len(done) == 0 {
		return r, nil
	}

	// A report that does not decode is a wrong output; it stays nil and
	// is not compared again.
	reports := make([]*comfedsv.Report, len(done))
	for i, j := range done {
		rep, err := decodeReport(j.report)
		if err != nil {
			r.tally.demote(err.Error())
			continue
		}
		reports[i] = rep
		r.cells += float64(rep.UtilityCalls) / float64(len(done))
	}
	if err := verifySample(e.ctx, d.runs, runID, done, reports, budget, tolerance, shards, &r.tally); err != nil {
		return nil, err
	}
	if e.traced {
		httpLayers(r.layer, done, before, after, log, float64(non2.Load()))
	}
	return r, nil
}

// verifySample re-values a few timed jobs in-process with ValueRunCtx on
// the stored trace and marks any job whose served report differs.
func verifySample(ctx context.Context, runs *persist.RunStore, runID string, done []*httpJob, reports []*comfedsv.Report, budget int, tol float64, shards int, t *tally) error {
	fr, err := runs.LoadRun(runID)
	if err != nil {
		return err
	}
	for k := 0; k < verifyJobs && k < len(done); k++ {
		i := k * (len(done) - 1) / max(1, verifyJobs-1)
		o := comfedsv.DefaultOptions(10)
		o.MonteCarloSamples = budget
		o.Tolerance = tol
		o.Shards = shards
		o.Parallelism = 1
		o.Seed = done[i].seed
		want, _, err := comfedsv.ValueRunCtx(ctx, comfedsv.NewTrainedRun(fr), o)
		if err != nil {
			return err
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			return err
		}
		if reports[i] != nil && sameReport(reports[i], wantJSON) != nil {
			t.demote(fmt.Sprintf("served report for seed %d differs from ValueRunCtx", done[i].seed))
		}
	}
	return nil
}

// decodeReport parses a served report strictly.
func decodeReport(body []byte) (*comfedsv.Report, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	rep := new(comfedsv.Report)
	if err := dec.Decode(rep); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return rep, nil
}

// traceHTTPJob records one finished job's spans: the client's requests,
// and from the job's status the queue wait and the execution, under which
// the job's journal appends nest.
func traceHTTPJob(t *tracer, n int, j *httpJob, journal [][2]time.Time) {
	root := t.add(n, -1, "job", j.start, j.end)
	submit := t.add(n, root, "api.submit", j.start, j.submitted)
	for _, p := range j.polls {
		t.add(n, root, "api.poll", p[0], p[1])
	}
	st := j.status
	t.add(n, root, "service.queue_wait", st.SubmittedAt, *st.StartedAt)
	exec := t.add(n, root, "service.exec", *st.StartedAt, *st.FinishedAt)
	t.add(n, root, "api.report", j.reportStart, j.end)
	for _, a := range journal {
		parent := root
		mid := a[0].Add(a[1].Sub(a[0]) / 2)
		switch {
		case !mid.Before(j.start) && mid.Before(j.submitted):
			parent = submit
		case !mid.Before(*st.StartedAt) && mid.Before(*st.FinishedAt):
			parent = exec
		}
		t.add(n, parent, "persist.journal", a[0], a[1])
	}
}

// httpLayers fills the daemon path's per-layer metrics from the jobs'
// statuses, the manager's counters over the window, and the fsync log.
func httpLayers(layer map[string]float64, done []*httpJob, before, after service.Metrics, log *fsyncLog, non2 float64) {
	jobs := float64(len(done))
	var queue, exec, submit, report, polls, hits, misses float64
	stage := map[string]float64{}
	for _, j := range done {
		st := j.status
		queue += st.StartedAt.Sub(st.SubmittedAt).Seconds()
		exec += st.FinishedAt.Sub(*st.StartedAt).Seconds()
		submit += j.submitted.Sub(j.start).Seconds()
		report += j.end.Sub(j.reportStart).Seconds()
		polls += float64(len(j.polls))
		for k, v := range st.StageSeconds {
			stage[k] += v
		}
		if st.CacheStats != nil {
			hits += float64(st.CacheStats.Hits)
			misses += float64(st.CacheStats.Misses)
		}
	}
	layer["service.queue_wait_s"] = queue / jobs
	layer["service.exec_s"] = exec / jobs
	for _, s := range []string{"prepare", "observe", "complete", "shapley"} {
		layer["service.stage."+s+"_s"] = stage[s] / jobs
	}
	layer["api.submit_s"] = submit / jobs
	layer["api.report_s"] = report / jobs
	layer["api.polls_per_job"] = polls / jobs
	layer["api.non2xx_per_job"] = non2 / jobs
	layer["utility.evals_per_job"] = misses / jobs
	layer["utility.hits_per_job"] = hits / jobs
	if hits+misses > 0 {
		layer["utility.hit_ratio"] = hits / (hits + misses)
	}

	var tasks, retries int64
	for k, v := range after.TasksExecuted {
		tasks += v - before.TasksExecuted[k]
	}
	for k, v := range after.TaskRetries {
		retries += v - before.TaskRetries[k]
	}
	layer["service.tasks_per_job"] = float64(tasks) / jobs
	layer["service.retries_per_job"] = float64(retries) / jobs
	layer["mc.waves_per_job"] = float64(after.TasksExecuted["complete"]-before.TasksExecuted["complete"]) / jobs
	layer["persist.cells_persisted_per_job"] = float64(after.CellsPersisted-before.CellsPersisted) / jobs

	// The library's own stage timings, as the manager's histograms saw
	// them over the window.
	stageSum := func(name string) float64 {
		return after.ValuationStageLatency[name].Sum - before.ValuationStageLatency[name].Sum
	}
	fedsv, observe := stageSum(comfedsv.StageFedSV), stageSum(comfedsv.StageObserve)
	layer["shapley.fedsv_s"] = fedsv / jobs
	layer["shapley.observe_s"] = observe / jobs
	layer["mc.complete_s"] = stageSum(comfedsv.StageComplete) / jobs
	layer["shapley.extract_s"] = stageSum(comfedsv.StageShapley) / jobs
	layer["shapley.plan_s"] = layer["service.stage.prepare_s"] - layer["shapley.fedsv_s"]
	if misses > 0 {
		layer["utility.eval_s"] = (fedsv + observe) / misses
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	if log.jCount > 0 {
		layer["persist.journal_append_s"] = log.jTotal.Seconds() / float64(log.jCount)
	}
	layer["persist.journal_appends_per_job"] = float64(log.jCount) / jobs
	if log.cCount > 0 {
		layer["persist.cells_append_s"] = log.cTotal.Seconds() / float64(log.cCount)
	}
}

// wire types mirror the daemon's JSON request shapes.
type wireData struct {
	X [][]float64 `json:"x"`
	Y []int       `json:"y"`
}

func wireClient(c comfedsv.Client) wireData { return wireData{X: c.X, Y: c.Y} }

func wireClients(cs []comfedsv.Client) []wireData {
	out := make([]wireData, len(cs))
	for i, c := range cs {
		out[i] = wireClient(c)
	}
	return out
}
