package shapley

import (
	"context"
	"reflect"
	"testing"

	"comfedsv/internal/utility"
)

// runImported drives a coordinator plan whose every shard, across every
// wave, is paid by a separate worker-side evaluator over the same trace:
// the shard's cell list goes out as a lease batch, the worker pays it
// through Pay, and the coordinator preloads the answer and observes the
// shard from cache.
func runImported(t *testing.T, cfg MonteCarloConfig) (*MonteCarloPlan, *Result) {
	t.Helper()
	ctx := context.Background()
	src := duplicatedEvaluator(t, 500)
	p, err := NewMonteCarloPlan(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker := duplicatedEvaluator(t, 500)
	for next := 0; next < p.Shards(); {
		for ; next < p.Shards(); next++ {
			lease, err := p.ShardCells(ctx, next)
			if err != nil {
				t.Fatal(err)
			}
			cells, err := worker.Pay(ctx, utility.NewCellBatch(p.n, lease, make([]float64, len(lease))), 2)
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
