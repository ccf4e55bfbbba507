package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	h.Observe(0.005) // bucket 0 (<= 0.01)
	h.Observe(0.01)  // bucket 0 (boundary is inclusive)
	h.Observe(0.05)  // bucket 1
	h.Observe(0.5)   // bucket 2
	h.Observe(3)     // +Inf bucket
	h.Observe(1000)  // +Inf bucket
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("Counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	wantSum := 0.005 + 0.01 + 0.05 + 0.5 + 3 + 1000
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram() // DefBuckets
	for i := 0; i < 500; i++ {
		h.Observe(float64(i) * 0.001)
	}
	s := h.Snapshot()
	cum := s.Cumulative()
	if len(cum) != len(s.Bounds)+1 {
		t.Fatalf("len(cum) = %d, want %d", len(cum), len(s.Bounds)+1)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative not monotone at %d: %v", i, cum)
		}
	}
	if cum[len(cum)-1] != s.Count {
		t.Fatalf("+Inf cumulative = %d, want Count = %d", cum[len(cum)-1], s.Count)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(0.001, 1)
	h.ObserveDuration(1500 * time.Microsecond)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("Counts = %v, want 1.5ms in bucket 1", s.Counts)
	}
	if math.Abs(s.Sum-0.0015) > 1e-12 {
		t.Fatalf("Sum = %v, want 0.0015", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveDuration(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	n := int64(workers * per)
	wantSum := float64(n*(n-1)/2) * 1e-6 // sum of 0..n-1 microseconds
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
	cum := s.Cumulative()
	if cum[len(cum)-1] != s.Count {
		t.Fatalf("+Inf cumulative %d != Count %d", cum[len(cum)-1], s.Count)
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unsorted bounds")
		}
	}()
	NewHistogram(1, 0.5)
}

func TestWritePrometheus(t *testing.T) {
	h := NewHistogram(0.01, 0.1)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	var b strings.Builder
	h.Snapshot().WritePrometheus(&b, "x_seconds", `stage="observe"`)
	want := `x_seconds_bucket{stage="observe",le="0.01"} 1
x_seconds_bucket{stage="observe",le="0.1"} 2
x_seconds_bucket{stage="observe",le="+Inf"} 3
x_seconds_sum{stage="observe"} 7.055
x_seconds_count{stage="observe"} 3
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWritePrometheusUnlabelled(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(0.5)
	var b strings.Builder
	h.Snapshot().WritePrometheus(&b, "y_seconds", "")
	want := `y_seconds_bucket{le="1"} 1
y_seconds_bucket{le="+Inf"} 1
y_seconds_sum 0.5
y_seconds_count 1
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRegistryWritePrometheus renders one registry holding every family
// kind: each family gets its HELP/TYPE header, families render in
// registration order, vec children in sorted label order, the unlabelled
// function family as a bare sample, and every histogram child's +Inf
// bucket equals its _count.
func TestRegistryWritePrometheus(t *testing.T) {
	var r Registry
	r.Func("fam_up", "Unlabelled function family.", "gauge", "", func(emit func(string, int64)) {
		emit("", 7)
	})
	lat := r.HistogramVec("fam_seconds", "Help text.", "stage")
	lat.With("zeta").Observe(2)
	lat.With("alpha").Observe(0.1)
	r.Func("fam_state", "Labelled function family.", "gauge", "state", func(emit func(string, int64)) {
		emit("queued", 1)
		emit("done", 2)
	})
	tasks := r.CounterVec("fam_total", "Counter vec.", "stage")
	tasks.With("b").Add(3)
	tasks.With("a").Inc()
	r.Counter("fam_plain_total", "Plain counter.").Add(5)
	r.Histogram("fam_job_seconds", "Plain histogram.").Observe(0.25)

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()

	if !strings.Contains(got, "# HELP fam_seconds Help text.\n# TYPE fam_seconds histogram\n") {
		t.Fatalf("missing header:\n%s", got)
	}
	// Sorted label order: alpha before zeta, a before b.
	if strings.Index(got, `stage="alpha"`) > strings.Index(got, `stage="zeta"`) {
		t.Fatalf("labels not sorted:\n%s", got)
	}
	if strings.Index(got, `fam_total{stage="a"} 1`) > strings.Index(got, `fam_total{stage="b"} 3`) {
		t.Fatalf("counter vec labels not sorted:\n%s", got)
	}
	// Registration order, and emit order within a function family.
	last := -1
	for _, name := range []string{"fam_up", "fam_seconds", "fam_state", "fam_total", "fam_plain_total", "fam_job_seconds"} {
		i := strings.Index(got, "# HELP "+name+" ")
		if i < last {
			t.Fatalf("family %s out of registration order:\n%s", name, got)
		}
		last = i
	}
	if strings.Index(got, `fam_state{state="queued"} 1`) > strings.Index(got, `fam_state{state="done"} 2`) {
		t.Fatalf("function family samples not in emit order:\n%s", got)
	}
	// The unlabelled function family renders one bare sample.
	if !strings.Contains(got, "# TYPE fam_up gauge\nfam_up 7\n# HELP fam_seconds") {
		t.Fatalf("unlabelled function family:\n%s", got)
	}
	if !strings.Contains(got, "fam_plain_total 5\n") {
		t.Fatalf("plain counter:\n%s", got)
	}
	// Every histogram child's +Inf bucket equals its _count.
	for _, s := range []struct{ inf, count string }{
		{`fam_seconds_bucket{stage="alpha",le="+Inf"}`, `fam_seconds_count{stage="alpha"}`},
		{`fam_seconds_bucket{stage="zeta",le="+Inf"}`, `fam_seconds_count{stage="zeta"}`},
		{`fam_job_seconds_bucket{le="+Inf"}`, `fam_job_seconds_count`},
	} {
		inf, count := sampleValue(t, got, s.inf), sampleValue(t, got, s.count)
		if inf != count || count != "1" {
			t.Fatalf("%s = %s, %s = %s, want 1 and 1", s.inf, inf, s.count, count)
		}
	}
}

// sampleValue returns the value of the exposition line for series.
func sampleValue(t *testing.T, text, series string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("no sample %s in:\n%s", series, text)
	return ""
}

// TestRegistryConcurrent feeds vec children (new and existing labels)
// from several goroutines while another renders (run with -race); the
// final counts must be exact.
func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	tasks := r.CounterVec("c_total", "Counter vec.", "stage")
	lat := r.HistogramVec("h_seconds", "Histogram vec.", "stage")
	const workers, per = 4, 500
	stop := make(chan struct{})
	rendered := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				rendered <- nil
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				rendered <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				stage := fmt.Sprintf("s%d", i%(w+2))
				tasks.With(stage).Inc()
				lat.With(stage).Observe(0.001)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-rendered; err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range tasks.Values() {
		total += v
	}
	var count uint64
	for _, s := range lat.Snapshot() {
		count += s.Count
	}
	if total != workers*per || count != workers*per {
		t.Fatalf("counted %d tasks and %d observations, want %d each", total, count, workers*per)
	}
}
