package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit. The two tables below
// are the benchmark's contract and must match BENCHMARK.json.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run reports: what a caller of the system
// sees. Every workload reports every one of them.
var endToEnd = []metricSpec{
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"cpu_s_per_job", "s"},
	{"utility_cells_per_job", "count"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what a traced run reports. A layer a workload does not pass
// through reads 0 on that workload.
var perLayer = []metricSpec{
	{"mc.complete_s", "s"},
	{"mc.waves_per_job", "count"},
	{"shapley.fedsv_s", "s"},
	{"shapley.observe_s", "s"},
	{"shapley.plan_s", "s"},
	{"shapley.extract_s", "s"},
	{"utility.eval_s", "s"},
	{"utility.evals_per_job", "count"},
	{"utility.hits_per_job", "count"},
	{"utility.hit_ratio", "ratio"},
	{"fl.train_s", "s"},
	{"persist.load_run_s", "s"},
	{"persist.preload_s", "s"},
	{"persist.cells_preloaded", "count"},
	{"persist.journal_append_s", "s"},
	{"persist.journal_appends_per_job", "count"},
	{"persist.cells_append_s", "s"},
	{"persist.cells_persisted_per_job", "count"},
	{"service.queue_wait_s", "s"},
	{"service.exec_s", "s"},
	{"service.stage.prepare_s", "s"},
	{"service.stage.observe_s", "s"},
	{"service.stage.complete_s", "s"},
	{"service.stage.shapley_s", "s"},
	{"service.tasks_per_job", "count"},
	{"service.retries_per_job", "count"},
	{"api.submit_s", "s"},
	{"api.report_s", "s"},
	{"api.polls_per_job", "count"},
	{"api.non2xx_per_job", "count"},
	{"go.alloc_mb_per_job", "MB"},
	{"go.gc_per_job", "count"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"host.calib_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of specs from values. A metric the
// workload did not produce is an error: every spec is reported on every
// workload.
func buildResult(specs []metricSpec, values map[string]float64, attempted, failed int) (result, error) {
	r := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return r, nil
}

// printTable writes every measured value by name with its unit, the
// human-readable part of the output.
func printTable(w io.Writer, values map[string]float64, units map[string]string) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, values[n], units[n])
	}
}

func (r result) line() ([]byte, error) { return json.Marshal(r) }
