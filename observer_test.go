package comfedsv

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestRemoteShardsPreloadMatchesRun drives the coordinator's remote-shard
// path at the façade: every shard's lease cells are paid by PayCells on a
// worker-side copy of the trace, the coordinator preloads the batch and
// observes the shard from cache. The report must equal Run's
// byte for byte — utility_calls included — and no remote shard may pay a
// single test-loss evaluation on the coordinator. At 22 clients each round
// selects more than 20, so FedSV samples and the shards' cells are new to
// the coordinator's evaluator when they arrive.
func TestRemoteShardsPreloadMatchesRun(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		clients, perRound int
		tolerance         float64
	}{
		{6, 3, 0},
		{22, 22, 0},
		{22, 22, 100},
	} {
		clients, test := wideClients(tc.clients)
		opts := DefaultOptions(2)
		opts.Rounds = 2
		opts.ClientsPerRound = tc.perRound
		opts.Seed = 61
		opts.MonteCarloSamples = 40
		opts.Shards = 3
		opts.Tolerance = tc.tolerance
		train := func() *TrainedRun {
			tr, err := TrainCtx(ctx, clients, test, opts)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}

		local, err := NewValuation(train(), opts).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(local)

		tr, worker := train(), train()
		v := NewValuation(tr, opts)
		pending, err := v.Prepare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		next, added := 0, 0
		for pending > 0 {
			for shard := next; shard < next+pending; shard++ {
				lease, err := v.ShardCells(ctx, shard)
				if err != nil {
					t.Fatal(err)
				}
				cells, err := worker.PayCells(ctx, lease, 2)
				if err != nil {
					t.Fatal(err)
				}
				n, err := tr.PreloadCells(cells)
				if err != nil {
					t.Fatal(err)
				}
				added += n
				misses := tr.CacheStats().Misses
				if err := v.ObserveShard(ctx, shard); err != nil {
					t.Fatal(err)
				}
				if got := tr.CacheStats().Misses - misses; got != 0 {
					t.Fatalf("%d clients: remote shard %d paid %d evaluations on the coordinator, want 0", tc.clients, shard, got)
				}
			}
			next += pending
			if pending, err = v.Complete(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if tc.perRound > 20 && added == 0 {
			t.Fatalf("%d clients: no remote cell was new to the coordinator — the batches went untested", tc.clients)
		}
		rep, err := v.Extract(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(rep)
		if !bytes.Equal(want, got) {
			t.Fatalf("%d clients, tolerance %v: remote-shard report differs from Run:\n%s\nvs\n%s", tc.clients, tc.tolerance, got, want)
		}
	}
}
