package shapley

import (
	"context"
	"reflect"
	"testing"
)

// runImported drives a coordinator plan whose every shard, across every
// wave, is evaluated by a separate worker-side plan (a fixed plan over the
// same budget and seed, on its own evaluator) through ObserveSlice; the
// coordinator preloads the batch and observes the shard from cache.
func runImported(t *testing.T, cfg MonteCarloConfig) (*MonteCarloPlan, *Result) {
	t.Helper()
	ctx := context.Background()
	src := duplicatedEvaluator(t, 500)
	p, err := NewMonteCarloPlan(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewMonteCarloPlan(ctx, duplicatedEvaluator(t, 500), MonteCarloConfig{Samples: cfg.Samples, Seed: cfg.Seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for next := 0; next < p.Shards(); {
		for ; next < p.Shards(); next++ {
			lo, hi := p.ShardSlice(next)
			cells, err := worker.ObserveSlice(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.Preload(cells); err != nil {
				t.Fatalf("shard %d: %v", next, err)
			}
			calls := src.Calls()
			if err := p.ObserveShard(ctx, next); err != nil {
				t.Fatal(err)
			}
			if got := src.Calls(); got != calls {
				t.Fatalf("shard %d paid %d evaluations after preloading its cells, want 0", next, got-calls)
			}
		}
		if _, err := p.Advance(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestImportShardMatchesLocalObservation pins remote execution against
// local execution for a fixed plan and a multi-wave tolerance plan: the
// values, the observation list, and every shard digest are identical.
func TestImportShardMatchesLocalObservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MonteCarloConfig
	}{
		{"fixed", planConfig(3)},
		{"tolerance", adaptiveConfig(2, 1e-12)},
	} {
		local, want := runAdaptive(t, tc.cfg, false)
		remote, got := runImported(t, tc.cfg)
		if len(remote.Waves()) != len(local.Waves()) {
			t.Fatalf("%s: %d waves imported, %d local", tc.name, len(remote.Waves()), len(local.Waves()))
		}
		if tc.name == "tolerance" && len(local.Waves()) < 2 {
			t.Fatalf("%s: expected several waves, got %v", tc.name, local.Waves())
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("%s: imported values diverge:\n%v\nvs\n%v", tc.name, got.Values, want.Values)
		}
		if !reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) {
			t.Fatalf("%s: imported observation list diverges", tc.name)
		}
		for shard := 0; shard < local.Shards(); shard++ {
			if remote.ShardDigest(shard) != local.ShardDigest(shard) {
				t.Fatalf("%s: shard %d digest %q, local %q", tc.name, shard, remote.ShardDigest(shard), local.ShardDigest(shard))
			}
		}
	}
}
