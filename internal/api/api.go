// Package api exposes the service job engine over an HTTP JSON API — the
// wire surface of the comfedsvd daemon:
//
//	POST /v1/jobs             submit a valuation job (clients + options,
//	                          or "run_id" to value against a shared run)
//	GET  /v1/jobs             list all jobs
//	GET  /v1/jobs/{id}        job status, per-stage/per-shard progress
//	GET  /v1/jobs/{id}/report finished report (FedSV / ComFedSV values)
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	DELETE /v1/jobs/{id}      delete a terminal job (409 while active)
//	POST /v1/runs             register (and train, if new) a shared run
//	GET  /v1/runs             list all shared runs
//	GET  /v1/runs/{id}        run status, refcount, cache hit/miss counters
//	DELETE /v1/runs/{id}      delete a run (409 while jobs reference it)
//	GET  /v1/healthz          liveness plus job/run/worker counts
//	GET  /v1/metrics          scheduler counters in Prometheus text format
//
// Every response body is JSON (except /v1/metrics, which is Prometheus
// text exposition); errors are {"error": "..."} with a meaningful status
// code (400 malformed, 404 unknown job/run, 409 report not ready, job
// still active, or run still referenced, 429 with Retry-After when the
// queue is full, 503 shutting down).
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/service"
)

// maxRequestBytes bounds a job submission body (feature matrices can be
// large, but unbounded reads are a trivial DoS).
const maxRequestBytes = 256 << 20

// Server routes HTTP traffic onto a service.Manager.
type Server struct {
	mgr      *service.Manager
	started  time.Time
	log      *slog.Logger
	dispatch *dispatch.Coordinator
}

// NewServer wraps a manager. With a shard coordinator in the manager's
// Config.Dispatcher, the /v1/worker endpoints are mounted too.
func NewServer(mgr *service.Manager) *Server {
	return &Server{mgr: mgr, started: time.Now(), dispatch: mgr.Dispatcher()}
}

// SetLogger enables structured request logging: one record per completed
// request with method, path, status, duration, and response size. Call
// before Handler; a nil logger (the default) disables the middleware
// entirely.
func (s *Server) SetLogger(l *slog.Logger) { s.log = l }

// Handler returns the daemon's route table, wrapped in the request-logging
// middleware when a logger is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.report)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.deleteJob)
	mux.HandleFunc("POST /v1/runs", s.createRun)
	mux.HandleFunc("GET /v1/runs", s.listRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.runStatus)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.deleteRun)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.workerRoutes(mux)
	if s.log == nil {
		return mux
	}
	return s.logRequests(mux)
}

// statusRecorder captures the status code and body size a handler wrote,
// for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// logRequests is the access-log middleware: every completed request emits
// one structured record, at debug level since per-request records are
// chatty under load. Logging happens after the response is written, so a
// slow log sink delays the connection's reuse, never the response.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.log.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", time.Since(start).Milliseconds(),
			"bytes", rec.bytes,
		)
	})
}

// clientJSON is the wire form of one data owner's local dataset.
type clientJSON struct {
	X [][]float64 `json:"x"`
	Y []int       `json:"y"`
}

// optionsJSON overlays non-zero fields onto comfedsv.DefaultOptions, so
// clients only send what they want to change. NumClasses is mandatory.
type optionsJSON struct {
	NumClasses        int     `json:"num_classes"`
	Rounds            int     `json:"rounds,omitempty"`
	ClientsPerRound   int     `json:"clients_per_round,omitempty"`
	LearningRate      float64 `json:"learning_rate,omitempty"`
	Model             string  `json:"model,omitempty"` // "logreg" (default) or "mlp"
	HiddenUnits       int     `json:"hidden_units,omitempty"`
	Rank              int     `json:"rank,omitempty"`
	MonteCarloSamples int     `json:"monte_carlo_samples,omitempty"`
	// Parallelism is the per-task CPU budget for the valuation hot path
	// (ALS completion and each shard's utility cells). 0 or absent means the
	// daemon's default — a fair share of GOMAXPROCS across the worker
	// pool. The computed values do not depend on it.
	Parallelism int `json:"parallelism,omitempty"`
	// Shards is the number of observation shard tasks each wave of the
	// job is split into on the scheduler: contiguous chunks of the wave's
	// cell list (FedSV's cells included in the first wave), at most one
	// shard per cell. 0 or absent means the daemon's default (-shards
	// flag, 1 if unset). The computed values do not depend on it.
	Shards int `json:"shards,omitempty"`
	// Tolerance, if present, switches the job to adaptive valuation:
	// sampling runs in waves and stops once no client's ComFedSV estimate
	// moved more than the tolerance between consecutive waves, with
	// monte_carlo_samples (or max_permutations) as the permutation budget.
	// A pointer so an explicit 0 — rejected as non-positive — is
	// distinguishable from an absent field (fixed-budget valuation).
	Tolerance *float64 `json:"tolerance,omitempty"`
	// MaxPermutations is an explicit permutation budget for adaptive
	// jobs — an alias for monte_carlo_samples that reads better next to
	// tolerance. Requires tolerance; setting both budgets to different
	// values is rejected.
	MaxPermutations int `json:"max_permutations,omitempty"`
	// Seed is a pointer so an explicit "seed": 0 is distinguishable from
	// an absent field (0 is a valid seed the library accepts).
	Seed *int64 `json:"seed,omitempty"`
}

func (o optionsJSON) toOptions() (comfedsv.Options, error) {
	return o.overlay(true)
}

// overlay validates the wire options and applies them over the defaults.
// requireClasses is false for run-backed jobs: their model (and so the
// class count) is fixed by the referenced run, and only the valuation
// fields matter.
func (o optionsJSON) overlay(requireClasses bool) (comfedsv.Options, error) {
	numClasses := o.NumClasses
	if !requireClasses && numClasses == 0 {
		numClasses = 2 // ignored downstream; keeps the defaults constructor happy
	}
	opts := comfedsv.DefaultOptions(numClasses)
	if numClasses < 2 {
		return opts, fmt.Errorf("options.num_classes must be at least 2, got %d", o.NumClasses)
	}
	// Zero means "use the default" (the fields are omitempty); negatives
	// are rejected rather than silently replaced by defaults.
	for name, v := range map[string]int{
		"rounds":              o.Rounds,
		"clients_per_round":   o.ClientsPerRound,
		"hidden_units":        o.HiddenUnits,
		"rank":                o.Rank,
		"monte_carlo_samples": o.MonteCarloSamples,
		"parallelism":         o.Parallelism,
		"shards":              o.Shards,
		"max_permutations":    o.MaxPermutations,
	} {
		if v < 0 {
			return opts, fmt.Errorf("options.%s must not be negative, got %d", name, v)
		}
	}
	if o.LearningRate < 0 {
		return opts, fmt.Errorf("options.learning_rate must not be negative, got %v", o.LearningRate)
	}
	if o.Tolerance != nil {
		tol := *o.Tolerance
		if math.IsNaN(tol) || math.IsInf(tol, 0) || tol <= 0 {
			return opts, fmt.Errorf("options.tolerance must be positive and finite, got %v", tol)
		}
		if o.MonteCarloSamples == 0 && o.MaxPermutations == 0 {
			return opts, errors.New("options.tolerance requires a permutation budget (monte_carlo_samples or max_permutations)")
		}
		if o.MonteCarloSamples > 0 && o.MaxPermutations > 0 && o.MonteCarloSamples != o.MaxPermutations {
			return opts, fmt.Errorf("options.monte_carlo_samples (%d) and options.max_permutations (%d) disagree", o.MonteCarloSamples, o.MaxPermutations)
		}
		opts.Tolerance = tol
	} else if o.MaxPermutations > 0 {
		return opts, errors.New("options.max_permutations requires options.tolerance (fixed-budget jobs use monte_carlo_samples)")
	}
	if o.MaxPermutations > 0 {
		opts.MaxPermutations = o.MaxPermutations
	}
	if o.Rounds > 0 {
		opts.Rounds = o.Rounds
	}
	if o.ClientsPerRound > 0 {
		opts.ClientsPerRound = o.ClientsPerRound
	}
	if o.LearningRate > 0 {
		opts.LearningRate = o.LearningRate
	}
	switch o.Model {
	case "", "logreg":
		opts.Model = comfedsv.LogisticRegression
	case "mlp":
		opts.Model = comfedsv.MLP
	default:
		return opts, fmt.Errorf("unknown model %q (want \"logreg\" or \"mlp\")", o.Model)
	}
	if o.HiddenUnits > 0 {
		opts.HiddenUnits = o.HiddenUnits
	}
	if o.Rank > 0 {
		opts.Rank = o.Rank
	}
	if o.MonteCarloSamples > 0 {
		opts.MonteCarloSamples = o.MonteCarloSamples
	}
	if o.Parallelism > 0 {
		opts.Parallelism = o.Parallelism
	}
	if o.Shards > 0 {
		opts.Shards = o.Shards
	}
	if o.Seed != nil {
		opts.Seed = *o.Seed
	}
	return opts, nil
}

// jobRequest is the body of POST /v1/jobs. Either Clients+Test (inline
// training) or RunID (value against a shared run) must be given, not both.
type jobRequest struct {
	RunID   string       `json:"run_id,omitempty"`
	Clients []clientJSON `json:"clients,omitempty"`
	Test    clientJSON   `json:"test,omitempty"`
	Options optionsJSON  `json:"options"`
}

// submitResponse is the body of a successful POST /v1/jobs.
type submitResponse struct {
	ID    string        `json:"id"`
	State service.State `json:"state"`
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("unexpected trailing data after JSON body"))
		return
	}
	if req.RunID != "" && (len(req.Clients) > 0 || len(req.Test.X) > 0 || len(req.Test.Y) > 0) {
		writeError(w, http.StatusBadRequest, errors.New("run_id and inline clients/test are mutually exclusive"))
		return
	}
	if req.RunID == "" && len(req.Clients) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no clients"))
		return
	}
	opts, err := req.Options.overlay(req.RunID == "")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sr := service.Request{RunID: req.RunID, Options: opts}
	if req.RunID == "" {
		sr.Test = toClient(req.Test)
		for _, c := range req.Clients {
			sr.Clients = append(sr.Clients, toClient(c))
		}
	}
	id, err := s.mgr.Submit(sr)
	switch {
	case errors.Is(err, service.ErrRunNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, service.ErrQueueFull):
		// Backpressure, not unavailability: the daemon is healthy, the
		// queue is momentarily full. 429 + Retry-After tells well-behaved
		// clients to back off and resubmit. The hint scales with queue
		// pressure; per-request jitter (up to +50%) spreads the herd so a
		// saturated deployment's rejected clients don't all come back in
		// the same second. Header randomness never feeds a report.
		retry := s.mgr.SubmitRetryAfter()
		retry += time.Duration(rand.Int64N(int64(retry)/2 + 1))
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, service.ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: service.StateQueued})
}

// runRequest is the body of POST /v1/runs: the datasets plus the training
// half of the options. Valuation-only fields (rank, monte_carlo_samples,
// parallelism) are accepted but do not participate in the run's identity —
// jobs that differ only in them share the run.
type runRequest struct {
	Clients []clientJSON `json:"clients"`
	Test    clientJSON   `json:"test"`
	Options optionsJSON  `json:"options"`
}

// createRunResponse is the body of a successful POST /v1/runs.
type createRunResponse struct {
	ID      string           `json:"id"`
	State   service.RunState `json:"state"`
	Created bool             `json:"created"`
}

func (s *Server) createRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("unexpected trailing data after JSON body"))
		return
	}
	if len(req.Clients) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no clients"))
		return
	}
	opts, err := req.Options.toOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := service.RunSpec{Test: toClient(req.Test), Options: opts}
	for _, c := range req.Clients {
		spec.Clients = append(spec.Clients, toClient(c))
	}
	st, created, err := s.mgr.CreateRun(spec)
	switch {
	case errors.Is(err, service.ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// 202 while the new run trains; re-registering an existing run is a
	// cheap idempotent 200.
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, createRunResponse{ID: st.ID, State: st.State, Created: created})
}

func (s *Server) listRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.mgr.Runs()})
}

func (s *Server) runStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.RunStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) deleteRun(w http.ResponseWriter, r *http.Request) {
	switch err := s.mgr.DeleteRun(r.PathValue("id")); {
	case errors.Is(err, service.ErrRunNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, service.ErrRunBusy):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func toClient(c clientJSON) comfedsv.Client { return comfedsv.Client{X: c.X, Y: c.Y} }

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) report(w http.ResponseWriter, r *http.Request) {
	rep, err := s.mgr.Report(r.PathValue("id"))
	switch {
	case errors.Is(err, service.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, service.ErrFailed):
		// 410: the job is terminal and will never produce a report, so
		// clients polling for non-409 stop here.
		writeError(w, http.StatusGone, err)
		return
	case errors.Is(err, service.ErrNotDone):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st, err := s.mgr.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// deleteJob removes a terminal job and its persisted report. Active jobs
// are a 409 — cancel first, then delete.
func (s *Server) deleteJob(w http.ResponseWriter, r *http.Request) {
	switch err := s.mgr.DeleteJob(r.PathValue("id")); {
	case errors.Is(err, service.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, service.ErrJobActive):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// metrics renders every family the manager registered (scheduler
// counters, job and task latency histograms, cell-cache and dispatch
// counters) in the Prometheus text exposition format (version 0.0.4).
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the client went away; there is no one to tell.
	_ = s.mgr.WriteMetrics(w)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	counts := s.mgr.Counts()
	runCounts := s.mgr.RunCounts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"workers":        s.mgr.Workers(),
		"jobs": map[string]int{
			"queued":  counts[service.StateQueued],
			"running": counts[service.StateRunning],
			"done":    counts[service.StateDone],
			"failed":  counts[service.StateFailed],
		},
		"runs": map[string]int{
			"training": runCounts[service.RunTraining],
			"ready":    runCounts[service.RunReady],
			"failed":   runCounts[service.RunFailed],
		},
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before writing the header so an unencodable value (e.g. a
	// NaN loss in a report) becomes a clean 500 instead of a truncated 200.
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		body = []byte(fmt.Sprintf(`{"error": %q}`, "encoding response: "+err.Error()))
		code = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
