package shapley

import (
	"context"
	"errors"
	"fmt"
	"math"

	"comfedsv/internal/mat"
	"comfedsv/internal/mc"
	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

// obsCell addresses one observed utility-matrix entry by round and dense
// column index (the column was registered during plan setup, so the index
// identifies the prefix subset without rebuilding a key).
type obsCell struct{ round, col int }

// MonteCarloPlan is Algorithm 1 split into independently schedulable
// stages, so a job scheduler can fan the expensive observation work out
// over a shared worker pool instead of binding one whole valuation to one
// worker:
//
//	setup (NewMonteCarloPlan)   sample the full budget of permutations,
//	                            register prefix columns, cut wave bounds
//	observe (ObserveShard × k)  the current wave's disjoint permutation
//	                            slices evaluate their prefix cells
//	advance (Advance)           merge the wave in serial order, solve the
//	                            reduced problem (13) (warm-started from the
//	                            previous wave's factors), estimate every
//	                            client via the permutation form (12), and
//	                            apply the convergence rule — returning
//	                            either the next wave's shard count or 0
//	extract (Extract)           assemble the result from the last wave
//
// A fixed budget (Tolerance 0) is the one-wave schedule: its single wave
// covers every permutation and one Advance finishes the plan. A tolerance
// cuts the budget into doubling waves (waveBounds) and stops as soon as
// the estimates stabilize.
//
// Determinism is the contract: for any shard count, any shard execution
// order, and any concurrency between shards, the merged observation list —
// and therefore the completion, the stopping wave, and the final values —
// is byte-identical to the single-shard serial pipeline's. Cell values are
// deterministic memoized functions of the trace (overlapping cells across
// shards agree, and the source's in-flight dedup pays each test loss
// once); Advance re-walks the wave's serial visit order rather than
// concatenating shard outputs; the wave bounds are a pure function of the
// budget; and the convergence rule reads only the merged estimates.
//
// ObserveShard calls for the current wave's shards are safe to run
// concurrently; Advance must be called only after every shard it scheduled
// has returned, and is itself a serial checkpoint.
type MonteCarloPlan struct {
	src utility.Source
	cfg MonteCarloConfig
	n   int
	t   int

	perms      [][]int
	prefixCols [][]int
	selected   []utility.Set // per-round selection bitsets
	store      *utility.Store

	bounds []int       // cumulative permutation counts per wave, last == budget
	wave   int         // index of the wave currently being observed
	slices []waveSlice // global shard id → permutation slice
	observedShards

	est        []float64
	completion *mc.Result
	stats      []WaveStat
	finished   bool
}

// waveSlice is one observation shard's permutation range within its wave.
type waveSlice struct{ wave, lo, hi int }

// WaveStat describes one completed sampling wave of a plan.
type WaveStat struct {
	// Samples is the cumulative number of permutations merged after this
	// wave (the wave's convergence-check point).
	Samples int
	// Shards is how many observation shards the wave was split into.
	Shards int
	// CompletionIterations is the ALS sweep count of the wave's completion
	// solve — warm-started waves should need far fewer than the first.
	CompletionIterations int
	// MaxDelta is the largest absolute per-client change from the previous
	// wave's estimate, −1 for the first wave (nothing to compare against).
	MaxDelta float64
}

// NewMonteCarloPlan samples the permutations, registers every prefix
// column, and schedules the first wave: all cfg.Samples permutations for a
// fixed budget, waveBounds(cfg.Samples)[0] under a tolerance. A wave is
// split into cfg.Shards disjoint permutation slices (0 means 1; the count
// is clamped to the wave's permutations so every shard owns at least one).
func NewMonteCarloPlan(ctx context.Context, e utility.Source, cfg MonteCarloConfig) (*MonteCarloPlan, error) {
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("shapley: non-positive Monte-Carlo sample count %d", cfg.Samples)
	}
	if !(cfg.Tolerance >= 0) || math.IsInf(cfg.Tolerance, 1) {
		return nil, fmt.Errorf("shapley: tolerance must be 0 (fixed budget) or positive and finite, got %v", cfg.Tolerance)
	}
	n := e.Run().NumClients()
	t := len(e.Run().Rounds)
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
	// j+1 elements of permutation m. Registration is the only store
	// mutation before Advance, so concurrent shards may read column sets
	// freely.
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
	for round, rd := range e.Run().Rounds {
		selected[round] = utility.FromMembers(n, rd.Selected)
	}

	bounds := []int{cfg.Samples}
	if cfg.Tolerance > 0 {
		bounds = waveBounds(cfg.Samples)
	}
	p := &MonteCarloPlan{
		src:        e,
		cfg:        cfg,
		n:          n,
		t:          t,
		perms:      perms,
		prefixCols: prefixCols,
		selected:   selected,
		store:      store,
		bounds:     bounds,
	}
	p.scheduleWave()
	return p, nil
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

// scheduleWave appends the current wave's shard slices (contiguous,
// disjoint, covering the wave's permutations) and returns how many it
// added. The requested shard count is clamped to the wave's permutation
// count so every shard owns at least one permutation.
func (p *MonteCarloPlan) scheduleWave() int {
	lo, hi := p.waveRange(p.wave)
	k := p.cfg.Shards
	if k <= 0 {
		k = 1
	}
	if k > hi-lo {
		k = hi - lo
	}
	for i := 0; i < k; i++ {
		p.slices = append(p.slices, waveSlice{
			wave: p.wave,
			lo:   lo + i*(hi-lo)/k,
			hi:   lo + (i+1)*(hi-lo)/k,
		})
		p.observedShards = append(p.observedShards, nil)
	}
	return k
}

// Shards returns the number of observation shards scheduled so far (the
// first wave's count right after construction; Advance grows it).
func (p *MonteCarloPlan) Shards() int { return len(p.slices) }

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

// ShardSlice returns the half-open permutation slice [lo, hi) owned by a
// scheduled shard. A shard index the plan has not scheduled panics.
func (p *MonteCarloPlan) ShardSlice(shard int) (lo, hi int) {
	if shard < 0 || shard >= len(p.slices) {
		panic(fmt.Sprintf("shapley: observation shard %d out of [0,%d)", shard, len(p.slices)))
	}
	sl := p.slices[shard]
	return sl.lo, sl.hi
}

// ObserveShard collects the distinct prefix cells reachable from one
// scheduled shard's permutation slice and evaluates them through the
// plan's source on a bounded pool (cfg.Workers per shard). Distinct shards
// may run concurrently — even across plans sharing one evaluator — because
// the source memoizes and deduplicates in-flight evaluations; a cell two
// shards both reach is paid for once.
func (p *MonteCarloPlan) ObserveShard(ctx context.Context, shard int) error {
	keys, cells, err := p.sliceCells(ctx, shard)
	if err != nil {
		return err
	}
	obs, err := payShard(ctx, p.src, cells, p.cfg.Workers)
	if err != nil {
		return err
	}
	obs.keys = keys
	p.observedShards[shard] = obs
	return nil
}

// ShardCells lists the cells a scheduled shard pays, in first-visit order,
// without paying them — what a lease of the shard carries.
func (p *MonteCarloPlan) ShardCells(ctx context.Context, shard int) ([]utility.Cell, error) {
	_, cells, err := p.sliceCells(ctx, shard)
	return cells, err
}

// sliceCells collects the distinct prefix cells reachable from a scheduled
// shard's permutation slice, in first-visit order, with their (round,
// column) coordinates.
func (p *MonteCarloPlan) sliceCells(ctx context.Context, shard int) ([]obsCell, []utility.Cell, error) {
	lo, hi := p.ShardSlice(shard)
	seen := make(map[obsCell]bool)
	var keys []obsCell
	var cells []utility.Cell
	err := p.walkPrefixes(ctx, lo, hi, func(round, col int) {
		oc := obsCell{round: round, col: col}
		if seen[oc] {
			return
		}
		seen[oc] = true
		keys = append(keys, oc)
		cells = append(cells, utility.Cell{Round: round, Subset: p.store.ColumnSet(col)})
	})
	if err != nil {
		return nil, nil, err
	}
	return keys, cells, nil
}

// Advance is the wave checkpoint: it merges the current wave's shard
// observations into the store in deterministic serial order, solves the
// completion (warm-started from the previous wave's factors, so the
// re-solve converges in a fraction of the sweeps), re-estimates every
// client over all merged permutations, and applies the convergence rule.
// It returns the number of newly scheduled observation shards — 0 means
// the plan converged (or exhausted its budget) and Extract may run. Every
// shard scheduled so far must have been observed first.
func (p *MonteCarloPlan) Advance(ctx context.Context) (more int, err error) {
	if p.finished {
		return 0, errors.New("shapley: Advance after the plan finished")
	}
	lo, hi := p.waveRange(p.wave)

	// Merge the wave: union its shard maps (overlapping cells carry equal
	// values — the source is a deterministic memoized function of the
	// trace), then record the wave's *new* cells by re-walking the wave's
	// permutation range in the serial pipeline's visit order. Cells already
	// observed by an earlier wave are ignored by the store, so the merged
	// observation list is identical to a serial pipeline that walked wave
	// after wave — regardless of shard count or completion order.
	combined := make(map[obsCell]float64)
	shards := 0
	for shard, sl := range p.slices {
		if sl.wave != p.wave {
			continue
		}
		obs := p.observedShards[shard]
		if obs == nil {
			return 0, fmt.Errorf("shapley: observation shard %d (wave %d) was not run before Advance", shard, p.wave)
		}
		for i, k := range obs.keys {
			combined[k] = obs.vals[i]
		}
		shards++
	}
	var missing error
	err = p.walkPrefixes(ctx, lo, hi, func(round, col int) {
		v, ok := combined[obsCell{round: round, col: col}]
		if !ok && missing == nil {
			// Cannot happen while the wave's slices cover its range; a
			// loud failure beats silently observing a zero utility.
			missing = fmt.Errorf("shapley: merge visited cell (%d,%d) no shard evaluated", round, col)
		}
		p.store.Observe(round, p.store.ColumnSet(col), v)
	})
	if err != nil {
		return 0, err
	}
	if missing != nil {
		return 0, missing
	}

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
		return 0, fmt.Errorf("shapley: completing reduced utility matrix (wave %d): %w", p.wave, err)
	}
	est, err := p.estimate(ctx, hi, res)
	if err != nil {
		return 0, err
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
		Shards:               shards,
		CompletionIterations: res.Iterations,
		MaxDelta:             delta,
	})
	p.completion = res
	p.est = est

	if converged || p.wave == len(p.bounds)-1 {
		p.finished = true
		return 0, nil
	}
	p.wave++
	return p.scheduleWave(), nil
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

// ExactPlan is the exact (non-sampled) Definition 4 pipeline split into
// MonteCarloPlan's stages. Its observation region {U_{t,S} : S ⊆ I_t} is
// sharded by round: each shard pays the utility.SelectedCells of one
// contiguous range of rounds. Advance records every shard's cells in round
// order — the list order of utility.SelectedCells, so the Store is the
// same for every shard count — and solves the full completion problem (9).
// The exact pipeline has one wave, so Advance always returns 0.
//
// ObserveShard calls for distinct shards are safe to run concurrently;
// Advance must be called only after every shard has returned.
type ExactPlan struct {
	src utility.Source
	cfg mc.Config
	n   int
	t   int

	store      *utility.Store
	cells      [][]utility.Cell // per shard, its rounds' utility.SelectedCells
	completion *mc.Result
	observedShards
}

// NewExactPlan registers every subset column in mask order (so column
// index == mask−1), validates feasibility, and cuts the rounds into
// shards contiguous ranges (clamped to [1, T]).
func NewExactPlan(e utility.Source, cfg mc.Config, shards int) (*ExactPlan, error) {
	n := e.Run().NumClients()
	if n > 14 {
		return nil, fmt.Errorf("shapley: exact ComFedSV over 2^%d columns is infeasible; use MonteCarlo", n)
	}
	cells, err := utility.SelectedCells(e.Run())
	if err != nil {
		return nil, err
	}
	t := len(e.Run().Rounds)
	store := utility.NewStore(t, n)
	for mask := uint64(1); mask < 1<<uint(n); mask++ {
		store.ColumnOf(utility.FromMask(n, mask))
	}
	// Shard i owns rounds [i·t/k, (i+1)·t/k).
	k := max(1, min(shards, t))
	shardCells := make([][]utility.Cell, k)
	for _, c := range cells {
		i := ((c.Round+1)*k - 1) / t
		shardCells[i] = append(shardCells[i], c)
	}
	return &ExactPlan{
		src:            e,
		cfg:            cfg,
		n:              n,
		t:              t,
		store:          store,
		cells:          shardCells,
		observedShards: make(observedShards, k),
	}, nil
}

// Shards returns the number of observation shards.
func (p *ExactPlan) Shards() int { return len(p.observedShards) }

// ObserveShard pays one shard's cells in one batch on cfg.Workers
// goroutines.
func (p *ExactPlan) ObserveShard(ctx context.Context, shard int) error {
	cells, err := p.ShardCells(ctx, shard)
	if err != nil {
		return err
	}
	obs, err := payShard(ctx, p.src, cells, p.cfg.Workers)
	if err != nil {
		return err
	}
	p.observedShards[shard] = obs
	return nil
}

// ShardCells returns the utility.SelectedCells of one shard's rounds —
// what a lease of the shard carries.
func (p *ExactPlan) ShardCells(_ context.Context, shard int) ([]utility.Cell, error) {
	if shard < 0 || shard >= len(p.cells) {
		return nil, fmt.Errorf("shapley: observation shard %d out of [0,%d)", shard, len(p.cells))
	}
	return p.cells[shard], nil
}

// Advance records every shard's cells in round order and solves the full
// completion problem (9). It returns 0: the exact pipeline schedules no
// further shards.
func (p *ExactPlan) Advance(ctx context.Context) (int, error) {
	if p.completion != nil {
		return 0, errors.New("shapley: Advance after the plan finished")
	}
	for shard, obs := range p.observedShards {
		if obs == nil {
			return 0, fmt.Errorf("shapley: observation shard %d was not run before Advance", shard)
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for shard, obs := range p.observedShards {
		for i, c := range p.cells[shard] {
			p.store.Observe(c.Round, c.Subset, obs.vals[i])
		}
	}
	res, err := mc.Complete(toEntries(p.store.Observations()), p.t, p.store.NumColumns(), p.cfg)
	if err != nil {
		return 0, fmt.Errorf("shapley: completing utility matrix: %w", err)
	}
	p.completion = res
	return 0, nil
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
