// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed window and prints, as its last line, a
// JSON object with the correctness verdict and the metrics named in
// BENCHMARK.json:
//
//	bash perfbench/run.sh --workload warm_mc --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untimed-hook run;
// --trace 1 runs the same workload with spans recorded around every call
// into a layer and reports the per-layer metrics instead. README.md in
// this directory describes the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*env) (*run, error){
	"warm_mc":      warmMC,
	"cold_mlp":     coldMLP,
	"durable_http": durableHTTP,
}

// env is what a workload function gets: its inputs' seed, the timed window,
// whether to trace, and a scratch directory of its own.
type env struct {
	ctx    context.Context
	seed   int64
	window time.Duration
	traced bool
	dir    string
	tr     *tracer
}

// run is what a workload function reports back.
type run struct {
	tally tally
	// lats holds the latency of every untraced timed job, tracedLats that
	// of every traced one. Failed jobs are included: their failure is
	// booked in tally.
	lats       []time.Duration
	tracedLats []time.Duration
	win        window
	// cells is the mean number of distinct utility cells a job requested.
	cells  float64
	setups []time.Duration
	// layer holds per-layer metrics the workload measured directly; span
	// self times are added by main.
	layer map[string]float64
}

// started is when the process began; logReady reports how long the
// untimed preparation before the window took.
var started = time.Now()

func logReady() {
	fmt.Fprintf(os.Stderr, "perfbench: inputs, references and set-up ready after %.1fs\n", time.Since(started).Seconds())
}

// minJobs is the smallest timed sample whose p90 has minTail samples
// beyond it.
var minJobs = samplesFor(0.9, minTail)

func main() {
	var (
		workload = flag.String("workload", "", "warm_mc, cold_mlp or durable_http")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for stores and trace files")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {warm_mc|cold_mlp|durable_http} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	if err := benchmark(drive, *workload, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(drive func(*env) (*run, error), name string, seed int64, seconds int, traced bool, workdir string) error {
	calib0 := calibrate()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{
		ctx:    context.Background(),
		seed:   seed,
		window: time.Duration(seconds) * time.Second,
		traced: traced,
		dir:    dir,
	}
	if traced {
		e.tr = newTracer()
	}
	r, err := drive(e)
	if err != nil {
		return err
	}
	calib1 := calibrate()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d host.calib_s start=%.4f end=%.4f\n", name, seed, calib0, calib1)

	attempted, failed := r.tally.counts()
	for _, reason := range r.tally.summary() {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", reason)
	}
	values := map[string]float64{"error_rate": r.tally.errorRate()}
	units := map[string]string{"error_rate": "ratio", "samples": "count"}
	specs := endToEnd
	if traced {
		specs = perLayer
		layerMetrics(e.tr, r, values, (calib0+calib1)/2)
		path := filepath.Join(workdir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
		if err := e.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(e.tr.spans), path)
	} else {
		endToEndMetrics(r, values)
	}
	for _, s := range specs {
		units[s.Name] = s.Unit
	}
	printTable(os.Stdout, values, units)
	res, err := buildResult(specs, values, attempted, failed)
	if err != nil {
		return err
	}
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndMetrics derives the untraced run's metrics.
func endToEndMetrics(r *run, values map[string]float64) {
	jobs := float64(len(r.lats))
	p50, _ := percentile(r.lats, 0.5)
	p90, tailOK := percentile(r.lats, 0.9)
	if !tailOK {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d samples, fewer than %d beyond p90\n", len(r.lats), minTail)
	}
	values["samples"] = jobs
	values["jobs_per_s"] = jobs / r.win.elapsed.Seconds()
	values["job_p50_s"] = p50
	values["job_p90_s"] = p90
	values["cpu_s_per_job"] = r.win.cpu.Seconds() / jobs
	values["utility_cells_per_job"] = r.cells
	values["max_rss_mb"] = r.win.rss
	values["setup_s"] = medianSeconds(r.setups)
}

// layerMetrics derives the traced run's metrics: zero for layers the
// workload does not reach, span self time per traced job for every layer
// named after a span, then whatever the workload measured directly.
func layerMetrics(tr *tracer, r *run, values map[string]float64, calib float64) {
	for _, s := range perLayer {
		values[s.Name] = 0
	}
	self, wall, jobs := layerTimes(tr.spans, "job")
	for name, d := range self {
		if _, ok := values[name+"_s"]; ok {
			values[name+"_s"] = d.Seconds() / float64(jobs)
		}
	}
	if jobs > 0 {
		values["trace.unattributed_frac"] = self["job"].Seconds() / wall.Seconds()
	}
	traced, untraced := medianSeconds(r.tracedLats), medianSeconds(r.lats)
	if untraced > 0 {
		values["trace.overhead_frac"] = traced/untraced - 1
	}
	all := float64(len(r.lats) + len(r.tracedLats))
	values["go.alloc_mb_per_job"] = float64(r.win.alloc) / (1 << 20) / all
	values["go.gc_per_job"] = float64(r.win.gcs) / all
	values["host.calib_s"] = calib
	values["samples"] = float64(len(r.tracedLats))
	for k, v := range r.layer {
		values[k] = v
	}
}

// window measures the timed part of a run: wall time, process CPU time,
// and Go heap allocation and collection counts.
type window struct {
	start   time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	// rss is the process's peak resident set size in MB when the
	// minJobs-th timed job finished: the daemon's cell cache grows with
	// every job, so a peak over the whole window would grow with
	// throughput.
	rssOnce sync.Once
	rss     float64
}

// jobDone notes that the n-th timed job finished.
func (w *window) jobDone(n int) {
	if n >= minJobs {
		w.rssOnce.Do(func() { w.rss = maxRSSMB() })
	}
}

// open starts the window on a freshly collected heap, so that garbage
// left by the untimed preparation is neither collected inside the window
// nor stacked on the heap the window's jobs grow.
func (w *window) open() {
	runtime.GC()
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = cpuTime()
	w.start = time.Now()
}

// closeAt ends the window at end, the finish of its last job.
func (w *window) closeAt(end time.Time) {
	w.rssOnce.Do(func() { w.rss = maxRSSMB() })
	w.elapsed = end.Sub(w.start)
	w.cpu = cpuTime() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - w.ms0.TotalAlloc
	w.gcs = ms.NumGC - w.ms0.NumGC
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink float64

// calibrate times a fixed pure-CPU loop of floating-point multiply-adds
// over an L1-resident vector, the kind of work the valuation jobs do: a
// diagnostic of the host's speed at the start and end of a run, never
// used to scale a metric.
func calibrate() float64 {
	start := time.Now()
	v := make([]float64, 2048)
	for i := range v {
		v[i] = 1 / float64(i+1)
	}
	var acc float64
	for r := 0; r < 40_000; r++ {
		for i, x := range v {
			acc += x * v[(i*7)&2047]
		}
	}
	calibSink += acc
	return time.Since(start).Seconds()
}

// closedLoop runs job(0), job(1), … back to back on the calling goroutine
// until the window has passed and at least minJobs jobs finished, or three
// windows have passed. It returns each job's latency, failed jobs
// included, and the time the last job finished.
func closedLoop(w time.Duration, job func(i int) error, r *run) ([]time.Duration, time.Time) {
	start := time.Now()
	var lats []time.Duration
	end := start
	for i := 0; ; i++ {
		since := end.Sub(start)
		if since >= 3*w || (since >= w && i >= minJobs) {
			break
		}
		t0 := time.Now()
		err := job(i)
		end = time.Now()
		r.tally.record(err)
		lats = append(lats, end.Sub(t0))
		r.win.jobDone(i + 1)
	}
	return lats, end
}

// splitLatencies sorts a closed loop's latencies into untraced and traced
// samples: odd jobs are the traced ones in a traced run.
func splitLatencies(lats []time.Duration, traced bool) (plain, withTrace []time.Duration) {
	for i, l := range lats {
		if traced && i%2 == 1 {
			withTrace = append(withTrace, l)
		} else {
			plain = append(plain, l)
		}
	}
	return plain, withTrace
}
