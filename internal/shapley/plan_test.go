package shapley

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"comfedsv/internal/mc"
	"comfedsv/internal/utility"
)

// planConfig is a small Monte-Carlo config exercised by every plan test.
func planConfig(shards int) MonteCarloConfig {
	cfg := DefaultMonteCarloConfig(6, 3, 51)
	cfg.Samples = 24
	cfg.Shards = shards
	return cfg
}

// TestMonteCarloShardCountInvariant pins the tentpole determinism
// guarantee at the shapley layer: the observation list, the completion,
// and the final values are identical for shard counts 1, 2, and 8.
func TestMonteCarloShardCountInvariant(t *testing.T) {
	e := duplicatedEvaluator(t, 500)
	base, err := MonteCarlo(e, planConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		got, err := MonteCarlo(e, planConfig(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got.Values, base.Values) {
			t.Fatalf("shards=%d values diverge:\n%v\nvs\n%v", shards, got.Values, base.Values)
		}
		if !reflect.DeepEqual(got.Store.Observations(), base.Store.Observations()) {
			t.Fatalf("shards=%d observation list diverges from serial order", shards)
		}
		if got.UnobservedColumns != base.UnobservedColumns {
			t.Fatalf("shards=%d unobserved columns %d, want %d", shards, got.UnobservedColumns, base.UnobservedColumns)
		}
	}
}

// TestMonteCarloPlanShardOrderInvariant runs the shards of one plan in
// reverse and concurrently: Advance must still record the serial order, so
// the result matches the plain pipeline byte for byte.
func TestMonteCarloPlanShardOrderInvariant(t *testing.T) {
	e := duplicatedEvaluator(t, 501)
	want, err := MonteCarlo(e, planConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Reverse order.
	p, err := NewMonteCarloPlan(ctx, e, planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for shard := p.Shards() - 1; shard >= 0; shard-- {
		if err := p.ObserveShard(ctx, shard); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Advance(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := p.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("reverse-order shard execution changed the values")
	}
	if !reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) {
		t.Fatal("reverse-order shard execution changed the observation list")
	}

	// Concurrent execution (meaningful under -race: shards share the
	// evaluator and read-only plan state).
	p2, err := NewMonteCarloPlan(ctx, e, planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, p2.Shards())
	for shard := 0; shard < p2.Shards(); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = p2.ObserveShard(ctx, shard)
		}(shard)
	}
	wg.Wait()
	for shard, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	if _, err := p2.Advance(ctx); err != nil {
		t.Fatal(err)
	}
	got2, err := p2.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.Values, want.Values) {
		t.Fatal("concurrent shard execution changed the values")
	}
	if !reflect.DeepEqual(got2.Store.Observations(), want.Store.Observations()) {
		t.Fatal("concurrent shard execution changed the observation list")
	}
}

// TestMonteCarloPlanStageOrderErrors pins the plan's stage contract:
// skipping a stage is a loud error, not silent corruption.
func TestMonteCarloPlanStageOrderErrors(t *testing.T) {
	e := duplicatedEvaluator(t, 502)
	ctx := context.Background()
	p, err := NewMonteCarloPlan(ctx, e, planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Advance(ctx); err == nil {
		t.Fatal("Advance before observing every shard must fail")
	}
	if _, err := p.Extract(ctx); err == nil {
		t.Fatal("Extract before Advance must fail")
	}
	if err := p.ObserveShard(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Advance(ctx); err == nil {
		t.Fatal("Advance with an unobserved shard must fail")
	}

	ep, err := NewExactPlan(e, mc.DefaultConfig(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Advance(ctx); err == nil {
		t.Fatal("exact Advance before observing every shard must fail")
	}
	if _, err := ep.Extract(ctx); err == nil {
		t.Fatal("exact Extract before Advance must fail")
	}
	if err := ep.ObserveShard(ctx, 2); err == nil {
		t.Fatal("exact ObserveShard past the last shard must fail")
	}
	if err := ep.ObserveShard(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Advance(ctx); err == nil {
		t.Fatal("exact Advance with an unobserved shard must fail")
	}
}

// TestMonteCarloShardClamp pins the shard-count clamp: more shards than
// permutations collapse to one shard per permutation, and the result still
// matches the serial pipeline.
func TestMonteCarloShardClamp(t *testing.T) {
	e := duplicatedEvaluator(t, 503)
	cfg := planConfig(0)
	cfg.Samples = 3
	p, err := NewMonteCarloPlan(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 1 {
		t.Fatalf("Shards() = %d for Shards=0, want 1", p.Shards())
	}
	cfg.Shards = 64
	p, err = NewMonteCarloPlan(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 3 {
		t.Fatalf("Shards() = %d for 64 shards over 3 permutations, want 3", p.Shards())
	}
	want, err := MonteCarlo(e, MonteCarloConfig{Samples: 3, Completion: mc.DefaultConfig(3), Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarlo(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("over-sharded pipeline diverges from serial")
	}
}

// TestExactShardCountInvariant pins the exact plan's round sharding: for
// shard counts 1, 2, T and T+3 (clamped to T), run serially, in reverse
// and concurrently, the observation list, the completion and the values
// are identical to ComFedSVExact's, and every shard carries the digest of
// a cell batch over its own rounds.
func TestExactShardCountInvariant(t *testing.T) {
	e := testEvaluator(t, 6, 5, 2, 504)
	ctx := context.Background()
	cfg := mc.DefaultConfig(3)
	want, err := ComFedSVExact(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(e.Run().Rounds)
	for _, shards := range []int{1, 2, rounds, rounds + 3} {
		for _, order := range []string{"serial", "reverse", "concurrent"} {
			p, err := NewExactPlan(e, cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Shards(); got != min(shards, rounds) {
				t.Fatalf("%d shards: Shards() = %d, want %d", shards, got, min(shards, rounds))
			}
			var wg sync.WaitGroup
			errs := make([]error, p.Shards())
			for i := 0; i < p.Shards(); i++ {
				switch order {
				case "serial":
					errs[i] = p.ObserveShard(ctx, i)
				case "reverse":
					errs[i] = p.ObserveShard(ctx, p.Shards()-1-i)
				default:
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						errs[i] = p.ObserveShard(ctx, i)
					}(i)
				}
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if more, err := p.Advance(ctx); err != nil || more != 0 {
				t.Fatalf("%d shards, %s: Advance = %d, %v; want 0, nil", shards, order, more, err)
			}
			got, err := p.Extract(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Values, want.Values) ||
				!reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) ||
				!reflect.DeepEqual(got.Completion, want.Completion) {
				t.Fatalf("%d shards, %s: result differs from the one-shard pipeline", shards, order)
			}

			// Each shard's digest is that of a batch over exactly its
			// rounds' cells.
			for i := 0; i < p.Shards(); i++ {
				lo, hi := i*rounds/p.Shards(), (i+1)*rounds/p.Shards()
				var cells []utility.Cell
				var vals []float64
				for _, o := range got.Store.Observations() {
					if o.Row >= lo && o.Row < hi {
						cells = append(cells, utility.Cell{Round: o.Row, Subset: got.Store.ColumnSet(o.Col)})
						vals = append(vals, o.Val)
					}
				}
				d := p.ShardDigest(i)
				if d == "" || d != utility.NewCellBatch(e.Run().NumClients(), cells, vals).Digest {
					t.Fatalf("%d shards, %s: shard %d digest %q is not its rounds' cell-batch digest", shards, order, i, d)
				}
			}
		}
	}
}
