// Package telemetry provides the lock-cheap operational instrumentation
// behind the comfedsvd daemon's /v1/metrics endpoint: atomic counters,
// fixed-bucket latency histograms, one-label vectors of both, render-time
// function families for values kept elsewhere, and a Registry that renders
// every family as one Prometheus text exposition (version 0.0.4).
//
// The package is deliberately tiny and dependency-free. Observation is a
// single atomic add per bucket plus one for the sum — safe to call from
// every scheduler worker concurrently and cheap enough for hot paths — and
// bucket bounds are fixed at construction, so there is no resizing, no
// locking, and no allocation after New. It is distinct from
// internal/metrics, which computes the paper's statistical metrics
// (Spearman, Jaccard, ...), not operational telemetry.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefBuckets is the default latency bucket layout: upper bounds in
// seconds spanning sub-millisecond stage tasks through multi-minute
// trainings. The terminal +Inf bucket is implicit.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket latency histogram. Observations are
// classified into the bucket with the smallest upper bound >= value;
// values above every bound land in the implicit +Inf bucket. All methods
// are safe for concurrent use; Observe is wait-free (two atomic adds).
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf excluded
	counts []atomic.Int64 // len(bounds)+1; the last slot is the +Inf bucket
	sum    atomic.Int64   // total observed time in nanoseconds
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (seconds). With no bounds it uses DefBuckets. It panics on unsorted or
// duplicate bounds — bucket layouts are compile-time decisions, and a
// malformed layout would silently corrupt every exposition.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly ascending: %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation in seconds.
func (h *Histogram) Observe(seconds float64) {
	h.observe(seconds, int64(seconds*1e9))
}

// ObserveDuration records one observation from a duration, keeping the
// sum exact in integer nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.observe(d.Seconds(), d.Nanoseconds())
}

func (h *Histogram) observe(seconds float64, nanos int64) {
	// Linear scan: bucket counts are small (tens), the slice is contiguous,
	// and a branchy binary search saves nothing at this size.
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(nanos)
}

// Snapshot captures the histogram's current state. Counts are read bucket
// by bucket without a global lock, so a snapshot taken while observations
// race may be off by in-flight increments — but Count is derived from the
// bucket reads themselves, so the rendered +Inf cumulative bucket always
// equals the rendered count, which is the invariant the Prometheus
// exposition format requires.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction; safe to share
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := uint64(h.counts[i].Load())
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = float64(h.sum.Load()) / 1e9
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, safe to
// retain, serialize, and render after the source keeps moving.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds, ascending, +Inf
	// excluded.
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket (non-cumulative) observation counts;
	// len(Counts) == len(Bounds)+1, the final entry being the +Inf bucket.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations (the sum of Counts).
	Count uint64 `json:"count"`
	// Sum is the total observed time in seconds.
	Sum float64 `json:"sum"`
}

// Cumulative returns the running bucket totals in bound order followed by
// the +Inf total — the `le`-labelled series of the Prometheus exposition.
// The result is non-decreasing and its last element equals Count.
func (s HistogramSnapshot) Cumulative() []uint64 {
	out := make([]uint64, len(s.Counts))
	var acc uint64
	for i, c := range s.Counts {
		acc += c
		out[i] = acc
	}
	return out
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest round-trip decimal ("0.005", "2.5", "10").
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WritePrometheus renders the snapshot as one Prometheus histogram series:
// cumulative `name_bucket{...,le="..."}` lines ending with le="+Inf",
// then `name_sum` and `name_count`. labels is a preformatted label list
// without braces (e.g. `stage="observe"`), empty for an unlabelled series.
// The caller writes the `# HELP`/`# TYPE` header once per family.
func (s HistogramSnapshot) WritePrometheus(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := s.Cumulative()
	for i, bound := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(bound), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum[len(cum)-1])
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, strconv.FormatFloat(s.Sum, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// Registry holds metric families in registration order and renders them
// with one WritePrometheus. Each constructor registers one family and
// returns its handle. The zero value is ready to use, and all methods are
// safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []family
}

// family is one registered metric family: its header and a function that
// writes its samples.
type family struct {
	name, help, typ string
	write           func(w io.Writer)
}

func (r *Registry) register(name, help, typ string, write func(w io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams = append(r.fams, family{name: name, help: help, typ: typ, write: write})
}

// Func registers a family of type typ ("counter" or "gauge") whose samples
// collect computes at render time, in the order it emits them. With an
// empty label the family is unlabelled and collect emits once with an
// empty label value. A counter's collect must never report a smaller
// value than before.
func (r *Registry) Func(name, help, typ, label string, collect func(emit func(labelValue string, v int64))) {
	r.register(name, help, typ, func(w io.Writer) {
		collect(func(value string, v int64) {
			if label == "" {
				fmt.Fprintf(w, "%s %d\n", name, v)
			} else {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, v)
			}
		})
	})
}

// Counter registers an unlabelled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.Func(name, help, "counter", "", func(emit func(string, int64)) { emit("", c.Value()) })
	return c
}

// CounterVec registers a counter family with one label. A child series
// appears once With creates it; series render in sorted label order.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{newVec(func() *Counter { return new(Counter) })}
	r.Func(name, help, "counter", label, func(emit func(string, int64)) {
		v.each(func(value string, c *Counter) { emit(value, c.Value()) })
	})
	return v
}

// Histogram registers an unlabelled histogram family over DefBuckets.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := NewHistogram()
	r.register(name, help, "histogram", func(w io.Writer) { h.Snapshot().WritePrometheus(w, name, "") })
	return h
}

// HistogramVec registers a histogram family with one label, every child
// over DefBuckets. Children render in sorted label order; create up front
// with With the ones that should render before their first observation.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	v := &HistogramVec{newVec(func() *Histogram { return NewHistogram() })}
	r.register(name, help, "histogram", func(w io.Writer) {
		v.each(func(value string, h *Histogram) {
			h.Snapshot().WritePrometheus(w, name, fmt.Sprintf("%s=%q", label, value))
		})
	})
	return v
}

// WritePrometheus renders every family in registration order: a
// `# HELP`/`# TYPE` header, then the family's samples. The body is built
// in memory and written with one Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := r.fams // registration only appends, so this prefix never changes
	r.mu.Unlock()
	var b bytes.Buffer
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.write(&b)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// vec is the child table shared by CounterVec and HistogramVec.
type vec[T any] struct {
	newChild func() *T
	mu       sync.Mutex
	children map[string]*T
}

func newVec[T any](newChild func() *T) vec[T] {
	return vec[T]{newChild: newChild, children: make(map[string]*T)}
}

// With returns the child for one label value, creating it on first use.
func (v *vec[T]) With(value string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = v.newChild()
		v.children[value] = c
	}
	return c
}

// each calls fn for every child in sorted label order.
func (v *vec[T]) each(fn func(value string, c *T)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, v.children[k])
	}
}

// CounterVec is a counter family with one label.
type CounterVec struct{ vec[Counter] }

// Values returns every child's current count by label value.
func (v *CounterVec) Values() map[string]int64 {
	out := make(map[string]int64)
	v.each(func(value string, c *Counter) { out[value] = c.Value() })
	return out
}

// HistogramVec is a histogram family with one label.
type HistogramVec struct{ vec[Histogram] }

// Snapshot returns every child's snapshot by label value.
func (v *HistogramVec) Snapshot() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot)
	v.each(func(value string, h *Histogram) { out[value] = h.Snapshot() })
	return out
}
