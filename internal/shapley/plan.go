package shapley

import (
	"context"
	"errors"
	"fmt"
	"math"

	"comfedsv/internal/fl"
	"comfedsv/internal/mat"
	"comfedsv/internal/mc"
	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

// Plan is the wave interface of the ComFedSV pipelines (ExactPlan and
// MonteCarloPlan): Cells lists the current wave's cells that no earlier
// wave listed, the caller pays them however it likes, Advance takes their
// values back in list order and reports whether another wave follows, and
// Extract assembles the result once none does. A wave may list no cell —
// its permutations' prefixes were all listed before — and is advanced all
// the same.
type Plan interface {
	Cells(ctx context.Context) ([]utility.Cell, error)
	Advance(ctx context.Context, vals []float64) (more bool, err error)
	Extract(ctx context.Context) (*Result, error)
}

// obsCell addresses one observed utility-matrix entry by round and dense
// column index (the column was registered during plan setup, so the index
// identifies the prefix subset without rebuilding a key).
type obsCell struct{ round, col int }

// MonteCarloPlan is Algorithm 1 split into waves a caller pays: the plan
// lists each wave's cells, the caller evaluates them however it likes —
// in one batch, in shards on a shared worker pool, on remote workers —
// and hands the values back:
//
//	setup (NewMonteCarloPlan)   sample the full budget of permutations,
//	                            register prefix columns, cut wave bounds
//	list (Cells)                the current wave's prefix cells no earlier
//	                            wave listed, in the serial pipeline's
//	                            first-visit order
//	advance (Advance)           record the wave's values in that order,
//	                            solve the reduced problem (13) (warm-started
//	                            from the previous wave's factors), estimate
//	                            every client via the permutation form (12),
//	                            and apply the convergence rule — reporting
//	                            whether another wave follows
//	extract (Extract)           assemble the result from the last wave
//
// A fixed budget (Tolerance 0) is the one-wave schedule: its single wave
// covers every permutation and one Advance finishes the plan. A tolerance
// cuts the budget into doubling waves (waveBounds) and stops as soon as
// the estimates stabilize.
//
// Determinism is the contract: the observation list — and therefore the
// completion, the stopping wave, and the final values — depends only on
// the values handed to Advance, which are deterministic memoized
// functions of the trace, however the caller paid them. The plan lists
// each cell once in its whole life, so every wave's list is what a serial
// pipeline walking wave after wave would first visit in it; the wave
// bounds are a pure function of the budget; and the convergence rule
// reads only the merged estimates.
type MonteCarloPlan struct {
	cfg MonteCarloConfig
	n   int
	t   int

	perms      [][]int
	prefixCols [][]int
	selected   []utility.Set // per-round selection bitsets
	store      *utility.Store

	bounds []int          // cumulative permutation counts per wave, last == budget
	wave   int            // index of the wave currently being observed
	cells  []utility.Cell // the current wave's list, set by Cells
	listed map[obsCell]struct{}

	est        []float64
	completion *mc.Result
	stats      []WaveStat
	finished   bool
}

// WaveStat describes one completed sampling wave of a plan.
type WaveStat struct {
	// Samples is the cumulative number of permutations merged after this
	// wave (the wave's convergence-check point).
	Samples int
	// CompletionIterations is the ALS sweep count of the wave's completion
	// solve — warm-started waves should need far fewer than the first.
	CompletionIterations int
	// MaxDelta is the largest absolute per-client change from the previous
	// wave's estimate, −1 for the first wave (nothing to compare against).
	MaxDelta float64
}

// NewMonteCarloPlan samples the permutations, registers every prefix
// column, and starts the first wave: all cfg.Samples permutations for a
// fixed budget, waveBounds(cfg.Samples)[0] under a tolerance.
func NewMonteCarloPlan(ctx context.Context, run *fl.Run, cfg MonteCarloConfig) (*MonteCarloPlan, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("shapley: non-positive Monte-Carlo sample count %d", cfg.Samples)
	}
	if !(cfg.Tolerance >= 0) || math.IsInf(cfg.Tolerance, 1) {
		return nil, fmt.Errorf("shapley: tolerance must be 0 (fixed budget) or positive and finite, got %v", cfg.Tolerance)
	}
	n := run.NumClients()
	t := len(run.Rounds)
	g := rng.New(cfg.Seed)

	perms := make([][]int, cfg.Samples)
	for m := range perms {
		if cfg.Antithetic && m%2 == 1 {
			prev := perms[m-1]
			rev := make([]int, n)
			for i, c := range prev {
				rev[n-1-i] = c
			}
			perms[m] = rev
			continue
		}
		perms[m] = g.Perm(n)
	}

	store := utility.NewStore(t, n)
	// Register every prefix column and remember its dense index per
	// permutation position: prefixCols[m][j] is the column of the first
	// j+1 elements of permutation m.
	prefixCols := make([][]int, cfg.Samples)
	for m, perm := range perms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := utility.NewSet(n)
		cols := make([]int, n)
		for j, c := range perm {
			s.Add(c)
			cols[j] = store.ColumnOf(s)
		}
		prefixCols[m] = cols
	}

	selected := make([]utility.Set, t)
	for round, rd := range run.Rounds {
		selected[round] = utility.FromMembers(n, rd.Selected)
	}

	bounds := []int{cfg.Samples}
	if cfg.Tolerance > 0 {
		bounds = waveBounds(cfg.Samples)
	}
	return &MonteCarloPlan{
		cfg:        cfg,
		n:          n,
		t:          t,
		perms:      perms,
		prefixCols: prefixCols,
		selected:   selected,
		store:      store,
		bounds:     bounds,
		listed:     make(map[obsCell]struct{}),
	}, nil
}

// waveBounds cuts a permutation budget into the cumulative check points of
// the tolerance schedule: the first wave is budget/8 (at least 16, at most
// the budget) and each later wave doubles the cumulative count until the
// budget is reached. Doubling keeps the number of completion solves
// logarithmic in the budget while the early check points stay cheap enough
// that a fast-converging job saves most of its observations. The bounds
// are a pure function of the budget — never of shard count, worker count,
// or anything observed at run time — which is what lets the stopping
// decision stay byte-identical across scheduling configurations.
func waveBounds(budget int) []int {
	first := budget / 8
	if first < 16 {
		first = 16
	}
	if first > budget {
		first = budget
	}
	bounds := []int{first}
	for last := first; last < budget; {
		last *= 2
		if last > budget {
			last = budget
		}
		bounds = append(bounds, last)
	}
	return bounds
}

// waveRange returns the half-open permutation range [lo, hi) of wave w.
func (p *MonteCarloPlan) waveRange(w int) (lo, hi int) {
	if w > 0 {
		lo = p.bounds[w-1]
	}
	return lo, p.bounds[w]
}

// Used returns the number of permutations the finished plan consumed, or
// 0 before Advance has returned 0.
func (p *MonteCarloPlan) Used() int {
	if !p.finished {
		return 0
	}
	return p.bounds[p.wave]
}

// walkPrefixes visits every (round, prefix-column) observation cell for
// permutations in [lo, hi), in the serial pipeline's visit order: rounds
// outermost, then permutations, then prefix positions until the first
// unselected element. Duplicate cells are visited again — callers dedup.
func (p *MonteCarloPlan) walkPrefixes(ctx context.Context, lo, hi int, visit func(round, col int)) error {
	for round := 0; round < p.t; round++ {
		sel := p.selected[round]
		for m := lo; m < hi; m++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for j, c := range p.perms[m] {
				if !sel.Contains(c) {
					break
				}
				visit(round, p.prefixCols[m][j])
			}
		}
	}
	return nil
}

// Cells lists the current wave's prefix cells that no earlier wave
// listed, in the serial pipeline's first-visit order — the cells the
// wave's Advance expects values for. The list may be empty. Calling it
// again before Advance returns the same list.
func (p *MonteCarloPlan) Cells(ctx context.Context) ([]utility.Cell, error) {
	if p.finished {
		return nil, errors.New("shapley: Cells after the plan finished")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.cells != nil {
		return p.cells, nil
	}
	lo, hi := p.waveRange(p.wave)
	cells := []utility.Cell{}
	err := p.walkPrefixes(ctx, lo, hi, func(round, col int) {
		oc := obsCell{round: round, col: col}
		if _, ok := p.listed[oc]; ok {
			return
		}
		p.listed[oc] = struct{}{}
		cells = append(cells, utility.Cell{Round: round, Subset: p.store.ColumnSet(col)})
	})
	if err != nil {
		return nil, err
	}
	p.cells = cells
	return cells, nil
}

// Advance is the wave checkpoint: vals[i] is the utility of the i-th cell
// Cells listed. It records the wave's cells in that order — the serial
// visit order with every cell an earlier visit listed dropped, so the
// observation list does not depend on how the caller paid them — and,
// with or without new cells, solves the completion
// (warm-started from the previous wave's factors, so the re-solve
// converges in a fraction of the sweeps), re-estimates every client over
// all merged permutations, and applies the convergence rule. It reports
// whether another wave follows; false means the plan converged (or
// exhausted its budget) and Extract may run.
func (p *MonteCarloPlan) Advance(ctx context.Context, vals []float64) (more bool, err error) {
	if p.finished {
		return false, errors.New("shapley: Advance after the plan finished")
	}
	if p.cells == nil || len(vals) != len(p.cells) {
		return false, fmt.Errorf("shapley: Advance of wave %d got %d values for the %d cells Cells listed", p.wave, len(vals), len(p.cells))
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, hi := p.waveRange(p.wave)
	for i, c := range p.cells {
		p.store.Observe(c.Round, c.Subset, vals[i])
	}
	p.cells = nil

	// Complete over everything merged so far. The factor shapes are fixed
	// by the full-budget column registration, so the previous wave's
	// factors align row-for-row and warm-start the solve; a warm solve
	// needs no restarts — its job is refinement, not basin search.
	cc := p.cfg.Completion
	if cc.Workers == 0 {
		cc.Workers = p.cfg.Workers
	}
	if p.completion != nil {
		cc.Warm = &mc.Warm{W: p.completion.W, H: p.completion.H}
		cc.Restarts = 1
	}
	res, err := mc.Complete(toEntries(p.store.Observations()), p.t, p.store.NumColumns(), cc)
	if err != nil {
		return false, fmt.Errorf("shapley: completing reduced utility matrix (wave %d): %w", p.wave, err)
	}
	est, err := p.estimate(ctx, hi, res)
	if err != nil {
		return false, err
	}

	// The convergence rule — a pure function of the merged estimates: stop
	// once no client's estimate moved more than the tolerance since the
	// previous wave. The first wave has nothing to compare against and
	// never stops early (MaxDelta −1).
	delta := -1.0
	converged := false
	if p.wave > 0 {
		delta = 0
		for i, v := range est {
			if d := math.Abs(v - p.est[i]); d > delta {
				delta = d
			}
		}
		converged = delta <= p.cfg.Tolerance
	}
	p.stats = append(p.stats, WaveStat{
		Samples:              hi,
		CompletionIterations: res.Iterations,
		MaxDelta:             delta,
	})
	p.completion = res
	p.est = est

	if converged || p.wave == len(p.bounds)-1 {
		p.finished = true
		return false, nil
	}
	p.wave++
	return true, nil
}

// Extract assembles the result from the last wave's completion and
// estimates. The unobserved-column diagnostic counts only columns
// reachable from the permutations actually used — columns registered for
// the unsampled remainder of a tolerance run's budget are not "missing",
// they were deliberately skipped.
func (p *MonteCarloPlan) Extract(ctx context.Context) (*Result, error) {
	if !p.finished {
		return nil, errors.New("shapley: Extract before the plan finished")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	observed := make([]bool, p.store.NumColumns())
	for _, o := range p.store.Observations() {
		observed[o.Col] = true
	}
	reachable := make([]bool, p.store.NumColumns())
	for _, cols := range p.prefixCols[:p.Used()] {
		for _, c := range cols {
			reachable[c] = true
		}
	}
	missing := 0
	for c, ok := range reachable {
		if ok && !observed[c] {
			missing++
		}
	}
	return &Result{
		Values:            p.est,
		Completion:        p.completion,
		Store:             p.store,
		UnobservedColumns: missing,
		Permutations:      p.Used(),
	}, nil
}

// estimate computes the per-client ComFedSV estimates ŝ_i of the
// permutation form (12) restricted to the first m sampled permutations:
// the average over those permutations of the summed completed marginal
// contributions. The empty prefix has utility 0.
func (p *MonteCarloPlan) estimate(ctx context.Context, m int, res *mc.Result) ([]float64, error) {
	values := make([]float64, p.n)
	for i, perm := range p.perms[:m] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cols := p.prefixCols[i]
		for round := 0; round < p.t; round++ {
			wt := res.W.Row(round)
			prev := 0.0
			for j, client := range perm {
				cur := mat.Dot(wt, res.H.Row(cols[j]))
				values[client] += cur - prev
				prev = cur
			}
		}
	}
	inv := 1 / float64(m)
	for i := range values {
		values[i] *= inv
	}
	return values, nil
}

// ExactPlan is the exact (non-sampled) Definition 4 pipeline in
// MonteCarloPlan's shape: one wave whose cells are the observation region
// {U_{t,S} : S ⊆ I_t} — utility.SelectedCells, in that list's order —
// and whose Advance records them in that order and solves the full
// completion problem (9).
type ExactPlan struct {
	cfg mc.Config
	n   int
	t   int

	store      *utility.Store
	cells      []utility.Cell
	completion *mc.Result
}

// NewExactPlan registers every subset column in mask order (so column
// index == mask−1) and validates feasibility.
func NewExactPlan(run *fl.Run, cfg mc.Config) (*ExactPlan, error) {
	n := run.NumClients()
	if n > 14 {
		return nil, fmt.Errorf("shapley: exact ComFedSV over 2^%d columns is infeasible; use MonteCarlo", n)
	}
	cells, err := utility.SelectedCells(run)
	if err != nil {
		return nil, err
	}
	t := len(run.Rounds)
	store := utility.NewStore(t, n)
	for mask := uint64(1); mask < 1<<uint(n); mask++ {
		store.ColumnOf(utility.FromMask(n, mask))
	}
	return &ExactPlan{cfg: cfg, n: n, t: t, store: store, cells: cells}, nil
}

// Cells returns the plan's one wave: utility.SelectedCells.
func (p *ExactPlan) Cells(context.Context) ([]utility.Cell, error) {
	if p.completion != nil {
		return nil, errors.New("shapley: Cells after the plan finished")
	}
	return p.cells, nil
}

// Advance records the cells' values (vals[i] is the utility of the i-th
// cell Cells listed) in list order and solves the full completion problem
// (9). It returns false: the exact pipeline has one wave.
func (p *ExactPlan) Advance(ctx context.Context, vals []float64) (bool, error) {
	if p.completion != nil {
		return false, errors.New("shapley: Advance after the plan finished")
	}
	if len(vals) != len(p.cells) {
		return false, fmt.Errorf("shapley: Advance got %d values for the %d cells Cells listed", len(vals), len(p.cells))
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	for i, c := range p.cells {
		p.store.Observe(c.Round, c.Subset, vals[i])
	}
	res, err := mc.Complete(toEntries(p.store.Observations()), p.t, p.store.NumColumns(), p.cfg)
	if err != nil {
		return false, fmt.Errorf("shapley: completing utility matrix: %w", err)
	}
	p.completion = res
	return false, nil
}

// Extract takes the exact Shapley value of the completed, per-round-summed
// utility.
func (p *ExactPlan) Extract(ctx context.Context) (*Result, error) {
	if p.completion == nil {
		return nil, errors.New("shapley: Extract before the plan finished")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := p.completion
	// Sum the completed per-round utilities: Û(S) = Σ_t w_tᵀ h_S.
	summed := make([]float64, 1<<uint(p.n))
	for mask := uint64(1); mask < 1<<uint(p.n); mask++ {
		col := int(mask) - 1
		var s float64
		for round := 0; round < p.t; round++ {
			s += res.Predict(round, col)
		}
		summed[mask] = s
	}
	values := Exact(p.n, func(mask uint64) float64 { return summed[mask] })
	return &Result{Values: values, Completion: res, Store: p.store}, nil
}
