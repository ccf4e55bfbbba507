package shapley

import (
	"context"
	"fmt"
	"math"

	"comfedsv/internal/fl"
	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

// FedSV is the federated Shapley value of Wang et al. (Definition 2) split
// into the cells it reads and the arithmetic over their values, so a
// caller can pay its cells together with other work and compute the
// values afterwards. The cell list is fixed at construction — the
// sampled estimator's seeded permutation walk happens there, once — and
// Values is a pure function of the cells' values.
type FedSV struct {
	cells  []utility.Cell
	values func(vals []float64) []float64
}

// Cells returns the distinct cells the estimator reads, in the order
// Values expects their values.
func (f *FedSV) Cells() []utility.Cell { return f.cells }

// Values computes the per-client values from vals, where vals[i] is the
// utility of Cells()[i].
func (f *FedSV) Values(vals []float64) []float64 { return f.values(vals) }

// newExactFedSV is exact FedSV: in every round, the exact Shapley value over
// the *selected* clients only; unselected clients receive zero for that
// round; the final value is the per-round sum. Its cells are the exact
// observation region utility.SelectedCells. A round selecting more than 20
// clients is an error, not a panic, so services can fail one job rather
// than the process; NewFedSV falls back to sampling instead.
func newExactFedSV(run *fl.Run) (*FedSV, error) {
	cells, err := utility.SelectedCells(run)
	if err != nil {
		return nil, fmt.Errorf("shapley: exact FedSV: %w; use FedSVMonteCarloCtx", err)
	}
	return &FedSV{cells: cells, values: func(vals []float64) []float64 {
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
		return values
	}}, nil
}

// newSampledFedSV estimates FedSV with samples random permutations of the
// selected set per round — the estimator the paper's Section VII-D costs
// at O(T·K²·log K) utility calls, required when |I_t| is too large for
// exact enumeration (e.g. the 100-client noisy-label experiment). Each
// round draws its permutations from the seeded stream, round after round;
// its cells are every round's distinct prefixes, and Values sums the
// marginals in permutation order, so the values are a pure function of
// the seed.
func newSampledFedSV(run *fl.Run, samples int, seed int64) (*FedSV, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("shapley: non-positive sample count %d", samples)
	}
	n := run.NumClients()
	g := rng.New(seed)
	visits := 0
	for _, rd := range run.Rounds {
		visits += samples * len(rd.Selected)
	}
	var cells []utility.Cell
	at := make([]int, 0, visits)  // cell index of each visited prefix
	who := make([]int, 0, visits) // the client each visit adds
	var sizes []int               // each round's selection size
	// One prefix grows through each permutation and is emptied after it;
	// a visit looks its prefix up by Key and copies it only for a new
	// cell. Keys do not hold the round, so the index starts empty in each.
	prefix := utility.NewSet(n)
	index := make(map[utility.Key]int)
	for t, rd := range run.Rounds {
		sel := rd.Selected
		clear(index)
		for range samples {
			for _, pos := range g.Perm(len(sel)) {
				prefix.Add(sel[pos])
				key := prefix.Key()
				i, ok := index[key]
				if !ok {
					i = len(cells)
					index[key] = i
					cells = append(cells, utility.Cell{Round: t, Subset: prefix.Clone()})
				}
				at = append(at, i)
				who = append(who, sel[pos])
			}
			for _, c := range sel {
				prefix.Remove(c)
			}
		}
		sizes = append(sizes, len(sel))
	}
	inv := 1 / float64(samples)
	return &FedSV{cells: cells, values: func(vals []float64) []float64 {
		values := make([]float64, n)
		i := 0
		for _, k := range sizes {
			for range samples {
				prev := 0.0
				for range k {
					cur := vals[at[i]]
					values[who[i]] += inv * (cur - prev)
					prev = cur
					i++
				}
			}
		}
		return values
	}}, nil
}

// NewFedSV is the FedSV baseline a valuation reports: exact while every
// round selects at most 20 clients, otherwise the sampled estimator with
// ⌈K·ln K⌉+1 permutations per round for the largest selection K — the
// paper's O(T·K²·log K) cost — seeded by seed. A full-participation
// warm-up round in a large federation thus degrades the baseline to an
// estimate instead of failing, and the values stay a pure function of the
// trace and seed.
func NewFedSV(run *fl.Run, seed int64) *FedSV {
	maxSel := 0
	for _, rd := range run.Rounds {
		maxSel = max(maxSel, len(rd.Selected))
	}
	if maxSel <= 20 {
		f, _ := newExactFedSV(run) // cannot fail: no round selects more than 20
		return f
	}
	samples := int(math.Ceil(float64(maxSel)*math.Log(float64(maxSel)))) + 1
	f, _ := newSampledFedSV(run, samples, seed) // cannot fail: samples ≥ 1
	return f
}

// pay evaluates f's cells through e in one batch on at most workers
// goroutines (≤ 0 means GOMAXPROCS), checking ctx before every
// evaluation, and returns the values.
func (f *FedSV) pay(ctx context.Context, e utility.Source, workers int) ([]float64, error) {
	vals, err := e.UtilityBatchCtx(ctx, f.cells, workers)
	if err != nil {
		return nil, err
	}
	return f.values(vals), nil
}

// FedSVCtx computes exact FedSV (newExactFedSV), paying its cells in one
// batch on at most workers goroutines.
func FedSVCtx(ctx context.Context, e utility.Source, workers int) ([]float64, error) {
	f, err := newExactFedSV(e.Run())
	if err != nil {
		return nil, err
	}
	return f.pay(ctx, e, workers)
}

// FedSVMonteCarloCtx estimates FedSV with samples seeded permutations per
// round (newSampledFedSV), paying its cells in one batch on at most workers
// goroutines; the values do not depend on the worker count.
func FedSVMonteCarloCtx(ctx context.Context, e utility.Source, samples int, seed int64, workers int) ([]float64, error) {
	f, err := newSampledFedSV(e.Run(), samples, seed)
	if err != nil {
		return nil, err
	}
	return f.pay(ctx, e, workers)
}

// FedSVAutoCtx computes the FedSV baseline of NewFedSV, paying its cells in
// one batch on at most workers goroutines.
func FedSVAutoCtx(ctx context.Context, e utility.Source, seed int64, workers int) ([]float64, error) {
	return NewFedSV(e.Run(), seed).pay(ctx, e, workers)
}
