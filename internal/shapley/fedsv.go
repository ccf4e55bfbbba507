package shapley

import (
	"context"
	"fmt"
	"math"

	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

// FedSVCtx computes the federated Shapley value of Wang et al. (Definition
// 2): in every round, the exact Shapley value over the *selected* clients
// only; unselected clients receive zero for that round; the final value is
// the per-round sum. It pays the exact observation region
// (utility.SelectedCells) in one batch on at most workers goroutines (≤ 0
// means GOMAXPROCS), checking ctx before every evaluation, then runs Exact
// over each round's paid values. A round selecting more than 20 clients is
// an error, not a panic, so services can fail one job rather than the
// process; FedSVAutoCtx falls back to sampling instead.
func FedSVCtx(ctx context.Context, e utility.Source, workers int) ([]float64, error) {
	run := e.Run()
	cells, err := utility.SelectedCells(run)
	if err != nil {
		return nil, fmt.Errorf("shapley: exact FedSV: %w; use FedSVMonteCarloCtx", err)
	}
	vals, err := e.UtilityBatchCtx(ctx, cells, workers)
	if err != nil {
		return nil, err
	}
	values := make([]float64, run.NumClients())
	for _, rd := range run.Rounds {
		k := len(rd.Selected)
		if k == 0 {
			continue
		}
		// The round's cells come next in mask order: u[mask-1] = U_t(mask).
		u := vals[:1<<uint(k)-1]
		vals = vals[len(u):]
		phi := Exact(k, func(mask uint64) float64 {
			if mask == 0 {
				return 0
			}
			return u[mask-1]
		})
		for pos, client := range rd.Selected {
			values[client] += phi[pos]
		}
	}
	return values, nil
}

// FedSVMonteCarloCtx estimates FedSV with samples random permutations of
// the selected set per round — the estimator the paper's Section VII-D
// costs at O(T·K²·log K) utility calls, required when |I_t| is too large
// for exact enumeration (e.g. the 100-client noisy-label experiment). Each
// round draws its permutations from the seeded stream, pays the round's
// distinct prefix cells in one batch on at most workers goroutines (≤ 0
// means GOMAXPROCS), then sums the marginals in permutation order, so the
// values are a pure function of the seed whatever the worker count.
// Cancellation is checked at every round and before every evaluation.
func FedSVMonteCarloCtx(ctx context.Context, e utility.Source, samples int, seed int64, workers int) ([]float64, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("shapley: non-positive sample count %d", samples)
	}
	n := e.Run().NumClients()
	g := rng.New(seed)
	values := make([]float64, n)
	inv := 1 / float64(samples)
	for t, rd := range e.Run().Rounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sel := rd.Selected
		k := len(sel)
		orders := make([][]int, samples)
		at := make([]int, 0, samples*k) // cell index of each visited prefix
		index := make(map[string]int)
		var cells []utility.Cell
		for m := range orders {
			orders[m] = g.Perm(k)
			prefix := utility.NewSet(n)
			for _, pos := range orders[m] {
				prefix = prefix.With(sel[pos])
				key := prefix.Key()
				i, ok := index[key]
				if !ok {
					i = len(cells)
					index[key] = i
					cells = append(cells, utility.Cell{Round: t, Subset: prefix})
				}
				at = append(at, i)
			}
		}
		vals, err := e.UtilityBatchCtx(ctx, cells, workers)
		if err != nil {
			return nil, err
		}
		for _, order := range orders {
			prev := 0.0
			for _, pos := range order {
				cur := vals[at[0]]
				at = at[1:]
				values[sel[pos]] += inv * (cur - prev)
				prev = cur
			}
		}
	}
	return values, nil
}

// FedSVAutoCtx computes the FedSV baseline a valuation reports: exact
// (FedSVCtx) when every round selects at most 20 clients, otherwise the
// sampled-permutation estimator (FedSVMonteCarloCtx) with ⌈K·ln K⌉+1
// permutations per round for the largest selection K — the paper's
// O(T·K²·log K) cost — seeded by seed. A full-participation warm-up round
// in a large federation thus degrades the baseline to an estimate instead
// of failing, and the values stay a pure function of the trace and seed.
func FedSVAutoCtx(ctx context.Context, e utility.Source, seed int64, workers int) ([]float64, error) {
	maxSel := 0
	for _, rd := range e.Run().Rounds {
		maxSel = max(maxSel, len(rd.Selected))
	}
	if maxSel <= 20 {
		return FedSVCtx(ctx, e, workers)
	}
	samples := int(math.Ceil(float64(maxSel)*math.Log(float64(maxSel)))) + 1
	return FedSVMonteCarloCtx(ctx, e, samples, seed, workers)
}
