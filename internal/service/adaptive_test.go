package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"comfedsv"
)

// indexAfter returns the position of the first occurrence of event
// strictly after position from, or -1 — index() for repeated events like
// the adaptive pipeline's multiple completes.
func (l *taskLog) indexAfter(event string, from int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := from + 1; i < len(l.events); i++ {
		if l.events[i] == event {
			return i
		}
	}
	return -1
}

// TestSchedulerAdaptiveWaves pins the stage-graph extension for adaptive
// pipelines: a Complete that returns more shards fans them out as fresh
// observe tasks (indices continuing past the previous wave's), the last of
// which enqueues the next Complete, looping until Complete returns 0 and
// extraction runs.
func TestSchedulerAdaptiveWaves(t *testing.T) {
	log := &taskLog{}
	f := &fakeValuation{name: "A", shards: 2, log: log, waves: []int{2, 1}}
	m := scriptManager(t, 2, f)
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateDone {
		t.Fatalf("job state %s (%s), want done", st.State, st.Error)
	}
	if st.Shards != 5 || st.ShardsDone != 5 {
		t.Fatalf("shards %d/%d, want 5/5 (2 + wave of 2 + wave of 1)", st.ShardsDone, st.Shards)
	}
	// Stage ordering: every wave's shards run strictly between the
	// completes that scheduled and consumed them.
	order := []string{"A:prepare", "A:complete", "A:complete", "A:complete", "A:extract"}
	last := -1
	for _, ev := range order {
		idx := log.indexAfter(ev, last)
		if idx < 0 {
			t.Fatalf("missing %q after position %d\nlog: %v", ev, last, log.events)
		}
		last = idx
	}
	for shard, window := range map[int][2]string{
		0: {"A:prepare", "A:complete"},
		2: {"A:complete", "A:extract"},
		4: {"A:complete", "A:extract"},
	} {
		s := log.index(fmt.Sprintf("A:observe%d", shard))
		if s < 0 {
			t.Fatalf("shard %d never ran\nlog: %v", shard, log.events)
		}
		if s < log.index(window[0]) {
			t.Fatalf("shard %d ran before %s\nlog: %v", shard, window[0], log.events)
		}
	}
	if got := m.Metrics().TasksExecuted[taskComplete]; got != 3 {
		t.Fatalf("complete tasks executed = %d, want 3", got)
	}
}

// TestAdaptiveJobEndToEnd runs a real tolerance job through the manager:
// the report and status must expose the early-stop savings, the skipped
// permutations must land in the metrics counter, and the report bytes must
// be identical across shard and parallelism settings (the determinism
// invariant at the service layer).
func TestAdaptiveJobEndToEnd(t *testing.T) {
	submit := func(m *Manager, shards, parallelism int) (*comfedsv.Report, Status) {
		req := tinyRequest(7)
		req.Options.MonteCarloSamples = 40
		req.Options.Tolerance = 100 // converges at the second wave bound
		req.Options.Shards = shards
		req.Options.Parallelism = parallelism
		id, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, m, id)
		if st.State != StateDone {
			t.Fatalf("job state %s (%s), want done", st.State, st.Error)
		}
		rep, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		return rep, st
	}

	m := newManager(t, Config{Workers: 2})
	base, st := submit(m, 1, 1)
	if base.ObservationsBudget != 40 {
		t.Fatalf("observations budget %d, want 40", base.ObservationsBudget)
	}
	if base.ObservationsUsed <= 0 || base.ObservationsUsed >= base.ObservationsBudget {
		t.Fatalf("observations used %d, want an early stop within budget 40", base.ObservationsUsed)
	}
	if st.ObservationsUsed != base.ObservationsUsed || st.ObservationsBudget != base.ObservationsBudget {
		t.Fatalf("status savings %d/%d disagree with report %d/%d",
			st.ObservationsUsed, st.ObservationsBudget, base.ObservationsUsed, base.ObservationsBudget)
	}
	skipped := int64(base.ObservationsBudget - base.ObservationsUsed)
	if got := m.met.obsSkipped.Value(); got != skipped {
		t.Fatalf("ObservationsSkipped = %d, want %d", got, skipped)
	}

	baseBody, _ := json.Marshal(base)
	for _, tc := range []struct{ shards, parallelism int }{{2, 1}, {8, 1}, {1, 4}, {8, 4}} {
		rep, _ := submit(m, tc.shards, tc.parallelism)
		body, _ := json.Marshal(rep)
		if !bytes.Equal(body, baseBody) {
			t.Fatalf("shards=%d parallelism=%d adaptive report diverges:\n%s\nvs\n%s",
				tc.shards, tc.parallelism, body, baseBody)
		}
	}
	if got, want := m.met.obsSkipped.Value(), skipped*5; got != want {
		t.Fatalf("ObservationsSkipped after 5 jobs = %d, want %d", got, want)
	}
}

// TestAdaptiveJobCancelMidWave pins cancellation between waves: a job
// cancelled while a later wave's shard is blocked fails with ErrCancelled
// and never reaches extraction.
func TestAdaptiveJobCancelMidWave(t *testing.T) {
	log := &taskLog{}
	gate := make(chan struct{})
	defer close(gate)
	f := &fakeValuation{
		name:        "A",
		shards:      2,
		log:         log,
		waves:       []int{1},
		observeGate: map[int]<-chan struct{}{2: gate},
	}
	m := scriptManager(t, 2, f)
	id, err := m.Submit(tinyRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the second wave's gated shard is in flight: the first
	// complete has run and shard 2 is blocked on the gate.
	deadline := time.Now().Add(5 * time.Second)
	for log.index("A:complete") < 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if log.index("A:complete") < 0 {
		t.Fatalf("first wave never completed\nlog: %v", log.events)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Error != ErrCancelled.Error() {
		t.Fatalf("state %s error %q, want failed/%q", st.State, st.Error, ErrCancelled)
	}
	if log.index("A:extract") >= 0 {
		t.Fatalf("cancelled job reached extraction\nlog: %v", log.events)
	}
}
