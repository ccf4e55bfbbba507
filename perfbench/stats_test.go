package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	if got := samplesFor(0.9, minTail); got != 100 {
		t.Fatalf("samplesFor(0.9, %d) = %d, want 100", minTail, got)
	}
	if got := samplesFor(0.5, minTail); got != 20 {
		t.Fatalf("samplesFor(0.5, %d) = %d, want 20", minTail, got)
	}
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {101, 0.9, 10}, {110, 0.9, 11}, {1, 0.9, 0}, {0, 0.9, 0}, {10, 0.5, 5}} {
		if got := beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
	}

	lats := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Second // reverse order: percentile sorts
		}
		return out
	}
	if v, ok := percentile(lats(100), 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 s = %v (tail ok %v), want 90 with a full tail", v, ok)
	}
	if v, ok := percentile(lats(99), 0.9); v != 90 || ok {
		t.Errorf("p90 of 1..99 s = %v (tail ok %v), want 90 flagged as a short tail", v, ok)
	}
	if v := medianSeconds(lats(5)); v != 3 {
		t.Errorf("median of 1..5 s = %v, want 3", v)
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of no samples = %v, %v", v, ok)
	}
}

func TestTallyCountsEveryAttemptOnce(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if i%5 == 0 {
					tl.record(errors.New("wrong report"))
				} else {
					tl.record(nil)
				}
			}
		}()
	}
	wg.Wait()
	if a, f := tl.counts(); a != 100 || f != 20 {
		t.Fatalf("counts = %d attempted, %d failed; want 100, 20", a, f)
	}
	tl.demote("sampled report differs")
	if a, f := tl.counts(); a != 100 || f != 21 {
		t.Fatalf("after demote: %d attempted, %d failed; want 100, 21", a, f)
	}
	if got := tl.errorRate(); got != 0.21 {
		t.Errorf("error rate = %v, want 0.21", got)
	}
	want := []string{"1x sampled report differs", "20x wrong report"}
	got := tl.summary()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("summary = %q, want %q", got, want)
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Error("error rate of an empty tally is not 0")
	}
}

func TestResultMarksFailuresIncorrect(t *testing.T) {
	specs := []metricSpec{{"a", "s"}}
	r, err := buildResult(specs, map[string]float64{"a": 1}, 10, 1)
	if err != nil || r.Correct || r.Failed != 1 || r.Attempted != 10 {
		t.Fatalf("result with a failure = %+v, %v", r, err)
	}
	if r, _ := buildResult(specs, map[string]float64{"a": 1}, 10, 0); !r.Correct {
		t.Error("result without failures is not correct")
	}
	if _, err := buildResult(specs, map[string]float64{}, 10, 0); err == nil {
		t.Error("a missing metric was not reported")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "b", Start: ms(30), End: ms(60)}, // overlaps a
		{ID: 3, Parent: 1, Name: "c", Start: ms(15), End: ms(20)},
		{ID: 4, Parent: 0, Name: "d", Start: ms(95), End: ms(130)}, // runs past its parent
		{ID: 5, Parent: -1, Name: "job", Start: ms(200), End: ms(220)},
		{ID: 6, Parent: 5, Name: "a", Start: ms(200), End: ms(220)},
	}
	want := []time.Duration{ms(45), ms(25), ms(30), ms(5), ms(35), 0, ms(20)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	self, wall, jobs := layerTimes(spans, "job")
	if jobs != 2 || wall != ms(120) {
		t.Errorf("layerTimes roots: %d jobs, %v wall; want 2, 120ms", jobs, wall)
	}
	if self["job"] != ms(45) || self["a"] != ms(45) {
		t.Errorf("self by name = %v", self)
	}
	if got := covered(ms(0), ms(10), nil); got != 0 {
		t.Errorf("nothing covers %v", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.open(7, -1, "job", t0)
	child := tr.add(7, root, "mc.complete", t0.Add(ms(1)), t0.Add(ms(3)))
	tr.close(root, t0.Add(ms(4)))
	if tr.spans[child].Parent != root || tr.spans[root].End != ms(4) {
		t.Fatalf("spans = %+v", tr.spans)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "job" || first.Job != 7 {
		t.Errorf("first span = %+v", first)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, code, doc []metricSpec) {
		if len(code) != len(doc) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(code), len(doc))
			return
		}
		for i := range code {
			if code[i] != doc[i] {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, code[i], doc[i])
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
}
