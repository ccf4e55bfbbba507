package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"comfedsv/internal/dispatch"
	"comfedsv/internal/service"
)

// promSample is one parsed Prometheus exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the subset of the text exposition format the daemon
// emits: `name value` and `name{k="v",...} value` lines, plus # comments.
func parseProm(t *testing.T, text string) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := make(map[string]string) // family -> TYPE
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		metric, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := promSample{labels: make(map[string]string), value: val}
		if open := strings.IndexByte(metric, '{'); open >= 0 {
			if !strings.HasSuffix(metric, "}") {
				t.Fatalf("unbalanced braces: %q", line)
			}
			s.name = metric[:open]
			for _, pair := range strings.Split(metric[open+1:len(metric)-1], ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					t.Fatalf("malformed label %q in %q", pair, line)
				}
				v, err := strconv.Unquote(pair[eq+1:])
				if err != nil {
					t.Fatalf("malformed label value %q in %q: %v", pair, line, err)
				}
				s.labels[pair[:eq]] = v
			}
		} else {
			s.name = metric
		}
		samples = append(samples, s)
	}
	return samples, types
}

// labelsKey is a label set minus `le`, canonicalized for grouping the
// bucket series of one histogram child.
func labelsKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, labels[k])
	}
	return b.String()
}

// checkHistogram asserts one histogram family is well-formed for every
// label child: ascending le bounds with a terminal +Inf, cumulative
// non-decreasing bucket counts, and _sum/_count series whose count equals
// the +Inf bucket. It returns the children's _count values by labelsKey.
func checkHistogram(t *testing.T, family string, samples []promSample, types map[string]string) map[string]float64 {
	t.Helper()
	if types[family] != "histogram" {
		t.Fatalf("%s: TYPE = %q, want histogram", family, types[family])
	}
	type child struct {
		bounds []float64 // parsed le, +Inf as math.Inf
		counts []float64
		inf    float64
		hasInf bool
		sum    float64
		hasSum bool
		count  float64
		hasCnt bool
	}
	children := make(map[string]*child)
	get := func(labels map[string]string) *child {
		k := labelsKey(labels)
		c, ok := children[k]
		if !ok {
			c = &child{}
			children[k] = c
		}
		return c
	}
	for _, s := range samples {
		switch s.name {
		case family + "_bucket":
			c := get(s.labels)
			le := s.labels["le"]
			if le == "+Inf" {
				c.inf, c.hasInf = s.value, true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", family, le)
			}
			if c.hasInf {
				t.Fatalf("%s: finite bucket le=%q after +Inf", family, le)
			}
			c.bounds = append(c.bounds, bound)
			c.counts = append(c.counts, s.value)
		case family + "_sum":
			c := get(s.labels)
			c.sum, c.hasSum = s.value, true
		case family + "_count":
			c := get(s.labels)
			c.count, c.hasCnt = s.value, true
		}
	}
	if len(children) == 0 {
		t.Fatalf("%s: no series found", family)
	}
	counts := make(map[string]float64, len(children))
	for key, c := range children {
		if !c.hasInf {
			t.Fatalf("%s{%s}: no +Inf terminal bucket", family, key)
		}
		if !c.hasSum || !c.hasCnt {
			t.Fatalf("%s{%s}: missing _sum or _count", family, key)
		}
		for i := 1; i < len(c.bounds); i++ {
			if c.bounds[i] <= c.bounds[i-1] {
				t.Fatalf("%s{%s}: le bounds not ascending: %v", family, key, c.bounds)
			}
		}
		for i := 1; i < len(c.counts); i++ {
			if c.counts[i] < c.counts[i-1] {
				t.Fatalf("%s{%s}: cumulative buckets not monotone: %v", family, key, c.counts)
			}
		}
		if n := len(c.counts); n > 0 && c.inf < c.counts[n-1] {
			t.Fatalf("%s{%s}: +Inf bucket %v below last finite bucket %v", family, key, c.inf, c.counts[n-1])
		}
		if c.inf != c.count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", family, key, c.inf, c.count)
		}
		if c.count > 0 && c.sum < 0 {
			t.Fatalf("%s{%s}: negative _sum %v", family, key, c.sum)
		}
		counts[key] = c.count
	}
	return counts
}

// TestMetricsHistogramExposition submits concurrent sharded jobs, then
// asserts /v1/metrics serves well-formed per-stage latency histograms:
// cumulative monotone buckets, terminal +Inf equal to _count, _sum
// present — for every stage child — plus the job-level histograms.
func TestMetricsHistogramExposition(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 4})

	const jobs, shards = 5, 3
	payloads := make([][]byte, jobs)
	for i := range payloads {
		raw, _, _, _ := tinyJob(int64(40 + i))
		var body map[string]any
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		opts := body["options"].(map[string]any)
		opts["monte_carlo_samples"] = 30
		opts["shards"] = shards
		var err error
		payloads[i], err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, p := range payloads {
		wg.Add(1)
		go func(p []byte) {
			defer wg.Done()
			submitAndWait(t, ts.URL, p)
		}(p)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples, types := parseProm(t, string(raw))

	taskCounts := checkHistogram(t, "comfedsvd_task_duration_seconds", samples, types)
	for _, stage := range []string{"prepare", "observe", "complete", "shapley"} {
		key := "stage=" + stage + ";"
		n, ok := taskCounts[key]
		if !ok {
			t.Fatalf("no task histogram for stage %q (have %v)", stage, taskCounts)
		}
		want := float64(jobs)
		if stage == "observe" {
			want = jobs * shards
		}
		if n != want {
			t.Fatalf("stage %q count = %v, want %v", stage, n, want)
		}
	}
	valCounts := checkHistogram(t, "comfedsvd_valuation_stage_duration_seconds", samples, types)
	for _, stage := range []string{"train", "fedsv", "observe", "complete", "shapley"} {
		if _, ok := valCounts["stage="+stage+";"]; !ok {
			t.Fatalf("no valuation-stage histogram for %q (have %v)", stage, valCounts)
		}
	}
	jobCounts := checkHistogram(t, "comfedsvd_job_duration_seconds", samples, types)
	if jobCounts[""] != jobs {
		t.Fatalf("job duration count = %v, want %d", jobCounts[""], jobs)
	}
	waitCounts := checkHistogram(t, "comfedsvd_job_queue_wait_seconds", samples, types)
	if waitCounts[""] != jobs {
		t.Fatalf("queue wait count = %v, want %d", waitCounts[""], jobs)
	}
}

// TestMetricsExpositionPinned serves /v1/metrics for a fixed scenario —
// two workers, a shard coordinator in Config.Dispatcher, two tiny jobs —
// and compares it with testdata/metrics.golden: every family name, HELP
// text, TYPE, order, label set and non-histogram value. The golden was
// rendered by the hand-written exposition the registry replaced, so it
// pins that the registry changed no byte. _bucket and _sum values depend
// on wall-clock timing and are masked on both sides.
func TestMetricsExpositionPinned(t *testing.T) {
	coord := dispatch.NewCoordinator(dispatch.Config{})
	t.Cleanup(coord.Close)
	ts := testDaemon(t, service.Config{Workers: 2, Dispatcher: coord})
	for _, seed := range []int64{40, 41} {
		payload, _, _, _ := tinyJob(seed)
		submitAndWait(t, ts.URL, payload)
	}
	got := maskHistogramValues(daemonMetrics(t, ts.URL))
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exposition line %d = %q, golden %q; full body:\n%s", i+1, g, w, got)
		}
	}
}

// maskHistogramValues replaces the value of every _bucket and _sum sample
// with "masked".
func maskHistogramValues(body []byte) []byte {
	lines := strings.SplitAfter(string(body), "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if k := strings.IndexAny(line, "{ "); k >= 0 {
			name = line[:k]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "masked\n"
		}
	}
	return []byte(strings.Join(lines, ""))
}

// TestJobStatusTimingFields: job status JSON carries the lifecycle
// timestamps and the per-stage duration map.
func TestJobStatusTimingFields(t *testing.T) {
	ts := testDaemon(t, service.Config{Workers: 2})
	payload, _, _, _ := tinyJob(51)
	id := submitAndWait(t, ts.URL, payload)

	var st struct {
		SubmittedAt  string             `json:"submitted_at"`
		StartedAt    string             `json:"started_at"`
		FinishedAt   string             `json:"finished_at"`
		StageSeconds map[string]float64 `json:"stage_seconds"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("GET status: %d", code)
	}
	if st.SubmittedAt == "" || st.StartedAt == "" || st.FinishedAt == "" {
		t.Fatalf("missing timestamps: %+v", st)
	}
	for _, stage := range []string{"prepare", "observe", "complete", "shapley"} {
		if _, ok := st.StageSeconds[stage]; !ok {
			t.Fatalf("stage_seconds missing %q: %v", stage, st.StageSeconds)
		}
	}
}

// logCapture records slog output for the middleware test.
type logCapture struct {
	mu      sync.Mutex
	records []map[string]any
	msgs    []string
}

func (h *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *logCapture) Handle(_ context.Context, r slog.Record) error {
	attrs := make(map[string]any)
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.Any()
		return true
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, attrs)
	h.msgs = append(h.msgs, r.Message)
	return nil
}
func (h *logCapture) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *logCapture) WithGroup(string) slog.Handler      { return h }

// TestRequestLoggingMiddleware: with a logger set, every request emits one
// structured access-log record with method, path, and status.
func TestRequestLoggingMiddleware(t *testing.T) {
	mgr, err := service.NewManager(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cap := &logCapture{}
	srv := NewServer(mgr)
	srv.SetLogger(slog.New(cap))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if code := getJSON(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("missing job: %d", code)
	}

	cap.mu.Lock()
	defer cap.mu.Unlock()
	var saw200, saw404 bool
	for i, msg := range cap.msgs {
		if msg != "request" {
			continue
		}
		attrs := cap.records[i]
		if attrs["method"] != "GET" || attrs["path"] == nil || attrs["duration_ms"] == nil {
			t.Fatalf("malformed access record: %v", attrs)
		}
		switch attrs["status"] {
		case int64(200):
			saw200 = true
		case int64(404):
			saw404 = true
		}
	}
	if !saw200 || !saw404 {
		t.Fatalf("missing access records (200=%v 404=%v): %v", saw200, saw404, cap.records)
	}
}
