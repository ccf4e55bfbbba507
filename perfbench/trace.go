package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// is the id of the span whose call caused this one (-1 for a job's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the run is over, so
// recording costs a clock read and an append. It is safe for concurrent
// use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (tr *tracer) add(job, parent int, name string, start, end time.Time) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(tr.t0), End: end.Sub(tr.t0)})
	return id
}

// open records a span whose end is not known yet and returns its id;
// close sets the end.
func (tr *tracer) open(job, parent int, name string, start time.Time) int {
	return tr.add(job, parent, name, start, start)
}

func (tr *tracer) close(id int, end time.Time) {
	tr.mu.Lock()
	tr.spans[id].End = end.Sub(tr.t0)
	tr.mu.Unlock()
}

// write dumps every span as one JSON line.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var end time.Duration = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// work, or a poll racing the server) are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// layerTimes sums self time by span name over the root spans named root
// and everything under them, and returns it with the summed duration of
// those roots. A root's own self time is time no layer accounts for.
func layerTimes(spans []span, root string) (self map[string]time.Duration, wall time.Duration, jobs int) {
	self = make(map[string]time.Duration)
	st := selfTimes(spans)
	for i, s := range spans {
		self[s.Name] += st[i]
		if s.Name == root && s.Parent < 0 {
			wall += s.End - s.Start
			jobs++
		}
	}
	return self, wall, jobs
}
