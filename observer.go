package comfedsv

import (
	"context"
	"fmt"

	"comfedsv/internal/shapley"
)

// ShardObserver is the worker-side half of distributed observation: a
// Monte-Carlo observation plan rebuilt from a trained run plus the
// coordinator's (budget, seed) lease parameters, able to evaluate any
// permutation slice of the job. Permutation sampling is a pure function
// of (trace, budget, seed), so the worker evaluates exactly the prefix
// cells the coordinator's shard reaches.
//
// A ShardObserver only observes. It never merges, completes, or extracts;
// those stages stay on the coordinator, which preloads each returned
// batch into its own evaluator and then observes the shard from cache.
type ShardObserver struct {
	plan *shapley.MonteCarloPlan
}

// NewShardObserver rebuilds the observation plan of a job from its
// trained run and the lease parameters: budget is the job's resolved
// permutation budget and seed its raw Options.Seed (the observer applies
// the same internal derivation the coordinator's Prepare does).
// parallelism bounds the evaluation pool per slice, and may differ from
// the coordinator's without perturbing results. Exact (non-sampled) jobs
// have no permutation structure to lease, so budget must be positive.
func NewShardObserver(ctx context.Context, tr *TrainedRun, budget int, seed int64, parallelism int) (*ShardObserver, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("comfedsv: shard observer requires a positive permutation budget, got %d", budget)
	}
	plan, err := shapley.NewMonteCarloPlan(ctx, tr.eval.NewSession(), shapley.MonteCarloConfig{
		Samples: budget,
		Seed:    seed + 1,
		Workers: parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &ShardObserver{plan: plan}, nil
}

// Budget returns the permutation budget the observer was built with.
func (o *ShardObserver) Budget() int { return o.plan.Budget() }

// ObserveSlice evaluates the prefix cells of the permutation slice
// [lo, hi) and returns every one of them as a digest-stamped CellBatch
// keyed by (round, coalition). Distinct slices are safe to evaluate
// concurrently.
func (o *ShardObserver) ObserveSlice(ctx context.Context, lo, hi int) (*CellBatch, error) {
	return o.plan.ObserveSlice(ctx, lo, hi)
}
