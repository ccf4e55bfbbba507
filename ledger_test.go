package comfedsv

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentValuationsShareOneLedger runs eight valuations over one
// TrainedRun at once (run with -race), the model of eight jobs sharing a
// run: every report is the report of a valuation over a fresh run, every
// job's hits and misses add up to its UtilityCalls, and the jobs' misses
// add up to the evaluations the shared evaluator made, so each cell was
// evaluated once. A ninth valuation after them pays nothing: all its
// cells are hits.
func TestConcurrentValuationsShareOneLedger(t *testing.T) {
	ctx := context.Background()
	clients, test := wideClients(22)
	opts := widePayerOptions()["wide/tolerance"]
	opts.Shards = 3
	opts.Parallelism = 2
	tr, err := TrainCtx(ctx, clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := ValueRunCtx(ctx, NewTrainedRun(tr.Run()), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fresh)

	const jobs = 8
	stats := make([]EvalStats, jobs)
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, st, err := ValueRunCtx(ctx, tr, opts)
			if err != nil {
				t.Errorf("job %d: %v", g, err)
				return
			}
			if body, _ := json.Marshal(rep); !bytes.Equal(body, want) {
				t.Errorf("job %d: report differs from a fresh run's:\n%s\nvs\n%s", g, body, want)
			}
			if st.Hits+st.Misses != rep.UtilityCalls {
				t.Errorf("job %d: hits %d + misses %d != UtilityCalls %d", g, st.Hits, st.Misses, rep.UtilityCalls)
			}
			stats[g] = st
		}()
	}
	wg.Wait()
	misses := 0
	for _, st := range stats {
		misses += st.Misses
	}
	if shared := tr.CacheStats().Misses; misses != shared || shared != fresh.UtilityCalls {
		t.Fatalf("jobs' misses sum to %d, the shared evaluator made %d evaluations, want both %d", misses, shared, fresh.UtilityCalls)
	}

	_, st, err := ValueRunCtx(ctx, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 0 || st.Hits != fresh.UtilityCalls || tr.CacheStats().Misses != misses {
		t.Fatalf("warm job: %+v, shared evaluations %d -> %d; want %d hits and nothing paid", st, misses, tr.CacheStats().Misses, fresh.UtilityCalls)
	}
}

// cancelAfter is a context whose Err reports Canceled from its (n+1)th
// call on: a serial batch checks Err before each cell, so it stops after
// evaluating n cells.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledShardLedger cancels a shard mid-batch, after it evaluated
// five cells, and runs it again, as the scheduler retries a task: the
// report is the uninterrupted one, the cells of the failed attempt count
// as this job's misses, not as hits of the retry, and the ledger still
// adds up to UtilityCalls, every cell of the cold run a miss.
func TestCancelledShardLedger(t *testing.T) {
	ctx := context.Background()
	clients, test := makeClients(t, 6, 20, 40, 337)
	for name, opts := range payerOptions(337) {
		opts.Shards = 2
		opts.Parallelism = 1
		tr, err := TrainCtx(ctx, clients, test, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ValueRunCtx(ctx, NewTrainedRun(tr.Run()), opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBody, _ := json.Marshal(want)

		v := NewValuation(tr, opts)
		pending, err := v.Prepare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cancelled := &cancelAfter{Context: ctx}
		cancelled.left.Store(5)
		if err := v.ObserveShard(cancelled, 0); err != context.Canceled {
			t.Fatalf("%s: cancelled shard returned %v, want context.Canceled", name, err)
		}
		if paid := tr.CacheStats().Misses; paid != 5 {
			t.Fatalf("%s: the cancelled attempt evaluated %d cells, want 5", name, paid)
		}
		for next := 0; pending > 0; {
			for i := range pending {
				if err := v.ObserveShard(ctx, next+i); err != nil {
					t.Fatal(err)
				}
			}
			next += pending
			if pending, err = v.Complete(ctx); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := v.Extract(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if body, _ := json.Marshal(rep); !bytes.Equal(body, wantBody) {
			t.Fatalf("%s: report after a cancelled shard differs:\n%s\nvs\n%s", name, body, wantBody)
		}
		st := v.Stats()
		if st.Hits+st.Misses != rep.UtilityCalls || st.Misses != rep.UtilityCalls || tr.CacheStats().Misses != st.Misses {
			t.Fatalf("%s: ledger %+v, %d evaluations, UtilityCalls %d; want every cell a miss, paid once", name, st, tr.CacheStats().Misses, rep.UtilityCalls)
		}
	}
}
