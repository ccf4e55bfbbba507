package shapley

import (
	"context"
	"fmt"

	"comfedsv/internal/utility"
)

// Budget returns the permutation budget the plan sampled — what a remote
// worker must pass to its own plan so column registration matches.
func (p *MonteCarloPlan) Budget() int { return len(p.perms) }

// ShardSlice returns the half-open permutation slice [lo, hi) owned by a
// scheduled shard — the coordinates a lease ships to a remote worker. A
// shard index the plan has not scheduled panics.
func (p *MonteCarloPlan) ShardSlice(shard int) (lo, hi int) {
	if shard < 0 || shard >= len(p.slices) {
		panic(fmt.Sprintf("shapley: observation shard %d out of [0,%d)", shard, len(p.slices)))
	}
	sl := p.slices[shard]
	return sl.lo, sl.hi
}

// ObserveSlice evaluates the prefix cells of an arbitrary permutation
// slice [lo, hi) and returns every one of them as a stamped cell batch
// keyed by (round, coalition), without mutating the plan's shard state —
// the worker-side entry point of distributed observation. The slice need
// not align with the plan's own shard boundaries, so one worker-side plan
// serves every lease of a job regardless of how the coordinator cut its
// waves. The coordinator preloads the batch into its evaluator and then
// observes the shard itself, entirely from cache.
func (p *MonteCarloPlan) ObserveSlice(ctx context.Context, lo, hi int) (*utility.CellBatch, error) {
	if lo < 0 || hi > len(p.perms) || lo >= hi {
		return nil, fmt.Errorf("shapley: observation slice [%d,%d) out of [0,%d)", lo, hi, len(p.perms))
	}
	obs, err := p.observeRange(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	return obs.batch, nil
}
