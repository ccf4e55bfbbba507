package service

import (
	"context"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"

	"comfedsv"
)

// scrape renders m's /v1/metrics exposition and returns every sample's
// value keyed by its series (name plus label set, as rendered).
func scrape(t *testing.T, m *Manager) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := m.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[series] = v
	}
	return samples
}

// TestStatusStageSeconds: a finished job's status reports where its wall
// clock went, with one entry per executed pipeline stage.
func TestStatusStageSeconds(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	req := tinyRequest(11)
	req.Options.MonteCarloSamples = 40
	req.Options.Shards = 2
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	for _, stage := range []string{taskPrepare, taskObserve, taskComplete, taskShapley} {
		if _, ok := st.StageSeconds[stage]; !ok {
			t.Fatalf("StageSeconds missing %q: %v", stage, st.StageSeconds)
		}
		if st.StageSeconds[stage] < 0 {
			t.Fatalf("negative stage duration: %v", st.StageSeconds)
		}
	}
	if st.StartedAt == nil || st.FinishedAt == nil || st.SubmittedAt.IsZero() {
		t.Fatalf("missing lifecycle timestamps: %+v", st)
	}
}

// TestMetricsLatencyHistograms: after jobs complete, the metric handles
// carry consistent per-stage task histograms, the finer valuation-stage
// histograms, and job duration/queue-wait histograms.
func TestMetricsLatencyHistograms(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	req := tinyRequest(12)
	req.Options.MonteCarloSamples = 40
	req.Options.Shards = 3
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}

	taskLatency := m.met.taskLatency.Snapshot()
	if got := taskLatency[taskObserve].Count; got != 3 {
		t.Fatalf("observe task observations = %d, want 3 (one per shard)", got)
	}
	for _, stage := range []string{taskPrepare, taskComplete, taskShapley} {
		if got := taskLatency[stage].Count; got != 1 {
			t.Fatalf("%s task observations = %d, want 1", stage, got)
		}
	}
	// The library-stage split: training and FedSV happen inside the
	// prepare task but get their own histograms via the timing hook.
	for _, stage := range []string{comfedsv.StageTrain, comfedsv.StageFedSV, comfedsv.StageObserve, comfedsv.StageComplete, comfedsv.StageShapley} {
		if got := m.Metrics().ValuationStageLatency[stage].Count; got == 0 {
			t.Fatalf("valuation stage %q has no observations", stage)
		}
	}
	jobDuration, queueWait := m.met.jobDuration.Snapshot(), m.met.queueWait.Snapshot()
	if jobDuration.Count != 1 || queueWait.Count != 1 {
		t.Fatalf("job histograms: duration=%d wait=%d, want 1/1", jobDuration.Count, queueWait.Count)
	}
	// Internal consistency of every exported snapshot.
	for stage, s := range taskLatency {
		cum := s.Cumulative()
		if cum[len(cum)-1] != s.Count {
			t.Fatalf("stage %q: +Inf bucket %d != count %d", stage, cum[len(cum)-1], s.Count)
		}
	}
}

// recordingHandler captures slog records for assertions.
type recordingHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r.Clone())
	return nil
}
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

// find returns the attrs of the first record with the given message that
// carries the given job_id, or nil.
func (h *recordingHandler) find(msg, jobID string) map[string]any {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.records {
		if r.Message != msg {
			continue
		}
		attrs := make(map[string]any)
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.Any()
			return true
		})
		if attrs["job_id"] == jobID {
			return attrs
		}
	}
	return nil
}

// TestLifecycleLogging: a configured Config.Logger sees the job's
// submit/start/finish transitions, each tagged with the job ID.
func TestLifecycleLogging(t *testing.T) {
	h := &recordingHandler{}
	m := newManager(t, Config{Workers: 1, Logger: slog.New(h)})
	id, err := m.Submit(tinyRequest(13))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	for _, msg := range []string{"job submitted", "job started", "job done"} {
		if h.find(msg, id) == nil {
			t.Fatalf("no %q record for job %s", msg, id)
		}
	}
	if attrs := h.find("job done", id); attrs["duration_ms"] == nil {
		t.Fatalf("job done record missing duration_ms: %v", attrs)
	}
}

// TestLifecycleLoggingFailure: a cancelled job logs a failure record with
// the reason.
func TestLifecycleLoggingFailure(t *testing.T) {
	h := &recordingHandler{}
	release := make(chan struct{})
	m := newManager(t, Config{Workers: 1, Logger: slog.New(h), buildValuation: blockingValuation(release)})
	defer close(release)
	if _, err := m.Submit(tinyRequest(14)); err != nil {
		t.Fatal(err)
	}
	blocked, err := m.Submit(tinyRequest(15))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(blocked); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, blocked); st.State != StateFailed {
		t.Fatalf("cancelled job finished %s", st.State)
	}
	attrs := h.find("job failed", blocked)
	if attrs == nil {
		t.Fatalf("no \"job failed\" record for job %s", blocked)
	}
	if attrs["error"] == nil {
		t.Fatalf("job failed record missing error: %v", attrs)
	}
}
