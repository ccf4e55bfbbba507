package comfedsv

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"comfedsv/internal/mc"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// Valuation is one valuation job's staged execution over a TrainedRun: the
// post-training pipeline decomposed into the schedulable stage graph the
// comfedsvd scheduler runs on its shared worker pool —
//
//	Prepare        final-model metrics, the ComFedSV plan, FedSV's cell
//	               list; lists wave 0's cells and pays none of them
//	ObserveShard×S contiguous chunks of the current wave's cell list pay
//	               their cells (safe to run concurrently)
//	Complete       the wave checkpoint: after wave 0, FedSV from its
//	               cells' values; then the plan records the wave in serial
//	               order and solves the ALS completion; in tolerance mode it
//	               may list another wave and return its shards to schedule
//	Extract        Shapley extraction and report assembly
//
// The Valuation keeps one index of every cell the job listed, each at its
// position in the job's cell list. A wave lists only the cells the index
// does not hold yet — wave 0 the plan's cells, then FedSV's others; a
// later wave the plan's new cells that FedSV did not list — so each cell
// of a job is listed once and paid by exactly one shard, and UtilityCalls
// is the index's size. A later wave with no new cell schedules no shard:
// Complete advances the plan past it in the same call. The plan and FedSV
// read their values at the positions the index gave their cells when
// they were listed. Run drives the stages serially;
// Value/ValueCtx and ValueRun/ValueRunCtx are thin wrappers over it. The
// report is byte-identical (under JSON encoding) for every shard count,
// shard execution order, and shard concurrency: cell values are
// deterministic memoized functions of the trace, and the plan and FedSV
// read them in list order no matter which shard paid them.
//
// Shards pay through the run's shared evaluator, so concurrent Valuations
// over one TrainedRun amortize test-loss evaluations; the batches count
// the cells they evaluated, which splits the job's cells into shared-cache
// hits and misses. The stage methods other than ObserveShard must be
// called in order, each after the previous stage (and, for Complete,
// every shard of the wave) finished; out-of-order calls fail loudly.
type Valuation struct {
	tr   *TrainedRun
	opts Options

	report *Report
	plan   shapley.Plan
	// index maps each cell the job listed to its position in cells;
	// vals[i] is the value of cells[i] once its shard ran.
	index map[cellKey]int
	cells []utility.Cell
	vals  []float64
	// planAt holds the positions of the plan's cells of the current wave;
	// fedsv and the positions of its cells live until wave 0's Complete
	// computes FedSV. wave is the index of the wave's first shard.
	planAt   []int
	fedsv    *shapley.FedSV
	fedsvAt  []int
	wave     int
	shards   []shard
	misses   atomic.Int64
	observed atomic.Int64
}

// cellKey identifies a cell in the Valuation's index.
type cellKey struct {
	round int
	set   utility.Key
}

// shard is one observation shard: the positions [lo, hi) of the job's
// cell list it pays, and whether it ran.
type shard struct {
	lo, hi int
	done   bool
}

// NewValuation returns a staged valuation of the run under the
// valuation-relevant options (Rank, MonteCarloSamples, Tolerance,
// MaxPermutations, Seed, Parallelism, Shards, OnProgress, OnStageTime —
// validated exactly as the inline path validates them).
func NewValuation(tr *TrainedRun, opts Options) *Valuation {
	return &Valuation{tr: tr, opts: opts}
}

func (v *Valuation) emit(p Progress) {
	if v.opts.OnProgress != nil {
		v.opts.OnProgress(p)
	}
}

// emitTime reports one finished stage execution's wall clock through
// Options.OnStageTime. Purely observational: the clock never feeds back
// into the computed values, so timing cannot perturb a report.
func (v *Valuation) emitTime(stage string, shard int, start time.Time) {
	if v.opts.OnStageTime != nil {
		v.opts.OnStageTime(StageTiming{Stage: stage, Shard: shard, Duration: time.Since(start)})
	}
}

// valuationBudget resolves the Monte-Carlo permutation budget from the
// options: MonteCarloSamples for a fixed budget, MonteCarloSamples or
// MaxPermutations under a Tolerance, or 0 for the exact pipeline.
// Contradictory combinations fail loudly here, before any training-trace
// work is spent.
func valuationBudget(opts Options) (int, error) {
	if opts.MonteCarloSamples < 0 {
		return 0, fmt.Errorf("comfedsv: negative MonteCarloSamples %d", opts.MonteCarloSamples)
	}
	if opts.MaxPermutations < 0 {
		return 0, fmt.Errorf("comfedsv: negative MaxPermutations %d", opts.MaxPermutations)
	}
	if opts.Tolerance != 0 && (math.IsNaN(opts.Tolerance) || math.IsInf(opts.Tolerance, 0) || opts.Tolerance < 0) {
		return 0, fmt.Errorf("comfedsv: tolerance must be positive and finite, got %v", opts.Tolerance)
	}
	if opts.Tolerance == 0 {
		if opts.MaxPermutations > 0 {
			return 0, errors.New("comfedsv: MaxPermutations requires Tolerance; fixed-budget runs use MonteCarloSamples")
		}
		return opts.MonteCarloSamples, nil
	}
	budget := opts.MonteCarloSamples
	if opts.MaxPermutations > 0 {
		if budget > 0 && budget != opts.MaxPermutations {
			return 0, fmt.Errorf("comfedsv: MonteCarloSamples (%d) and MaxPermutations (%d) disagree", budget, opts.MaxPermutations)
		}
		budget = opts.MaxPermutations
	}
	if budget <= 0 {
		return 0, errors.New("comfedsv: Tolerance requires a positive permutation budget (MonteCarloSamples or MaxPermutations)")
	}
	return budget, nil
}

// Prepare computes the final-model metrics, builds the ComFedSV plan and
// FedSV's cell list, and cuts wave 0's cells into shards; it pays no
// cell. It returns the number of observation shards to schedule:
// Options.Shards clamped to [1, cells in wave 0].
func (v *Valuation) Prepare(ctx context.Context) (int, error) {
	budget, err := valuationBudget(v.opts)
	if err != nil {
		return 0, err
	}

	loss, acc := v.tr.finalMetrics()
	v.report = &Report{FinalTestLoss: loss, FinalAccuracy: acc}

	mcCfg := mc.DefaultConfig(v.opts.Rank)
	mcCfg.Workers = v.opts.Parallelism
	// p holds a typed nil on error, so it reaches v.plan only on success.
	var p shapley.Plan
	if budget > 0 {
		p, err = shapley.NewMonteCarloPlan(ctx, v.tr.Run(), shapley.MonteCarloConfig{
			Samples:    budget,
			Completion: mcCfg,
			Seed:       v.opts.Seed + 1,
			Tolerance:  v.opts.Tolerance,
		})
	} else {
		p, err = shapley.NewExactPlan(v.tr.Run(), mcCfg)
	}
	if err != nil {
		return 0, stageErr(ctx, "valuation", err)
	}
	cells, err := p.Cells(ctx)
	if err != nil {
		return 0, stageErr(ctx, "valuation", err)
	}
	v.plan = p
	v.fedsv = shapley.NewFedSV(v.tr.Run(), v.opts.Seed+2)
	v.index = make(map[cellKey]int, len(cells)+len(v.fedsv.Cells()))
	v.planAt = v.list(cells)
	v.fedsvAt = v.list(v.fedsv.Cells())
	k := v.schedule(0)
	v.emit(Progress{Stage: StageObserve, Done: 0, Total: k})
	return k, nil
}

// list appends the cells the index does not hold to the job's cell list,
// each once, and returns every cell's position in that list.
func (v *Valuation) list(cells []utility.Cell) []int {
	n := len(v.cells)
	at := make([]int, len(cells))
	for i, c := range cells {
		k := cellKey{round: c.Round, set: c.Subset.Key()}
		j, ok := v.index[k]
		if !ok {
			j = len(v.cells)
			v.index[k] = j
			v.cells = append(v.cells, c)
		}
		at[i] = j
	}
	v.vals = append(v.vals, make([]float64, len(v.cells)-n)...)
	return at
}

// read returns the values at the given positions of the job's cell list.
func (v *Valuation) read(at []int) []float64 {
	vals := make([]float64, len(at))
	for i, j := range at {
		vals[i] = v.vals[j]
	}
	return vals
}

// schedule cuts the job's cell list from position lo on — the current
// wave's new cells — into Options.Shards contiguous chunks (clamped to
// [1, cells]), appended to the shards as the current wave, and returns
// how many.
func (v *Valuation) schedule(lo int) int {
	n := len(v.cells) - lo
	k := max(1, min(v.opts.Shards, n))
	v.wave = len(v.shards)
	for i := range k {
		v.shards = append(v.shards, shard{lo: lo + i*n/k, hi: lo + (i+1)*n/k})
	}
	return k
}

// Shards returns the number of observation shards scheduled so far,
// across every wave.
func (v *Valuation) Shards() int { return len(v.shards) }

// ObserveShard pays one shard of the current wave through the run's
// shared evaluator. Distinct shards are safe to run concurrently; each
// uses up to Options.Parallelism goroutines of its own.
func (v *Valuation) ObserveShard(ctx context.Context, shard int) error {
	start := time.Now()
	if shard < v.wave || shard >= len(v.shards) {
		return stageErr(ctx, "valuation", fmt.Errorf("observation shard %d is not in the current wave [%d,%d)", shard, v.wave, len(v.shards)))
	}
	s := &v.shards[shard]
	vals, misses, err := v.tr.eval.UtilityBatchCtx(ctx, v.cells[s.lo:s.hi], v.opts.Parallelism)
	v.misses.Add(int64(misses))
	if err != nil {
		return stageErr(ctx, "valuation", err)
	}
	copy(v.vals[s.lo:s.hi], vals)
	s.done = true
	v.emitTime(StageObserve, shard, start)
	v.emit(Progress{Stage: StageObserve, Done: int(v.observed.Add(1)), Total: len(v.shards)})
	return nil
}

// TrainedRun returns the run this valuation values against — the handle
// the comfedsvd scheduler uses to persist an inline job's trace so crash
// recovery can resume without retraining.
func (v *Valuation) TrainedRun() *TrainedRun { return v.tr }

// ShardDigest returns the digest of an observed shard's cell batch — the
// token the comfedsvd journal records so crash recovery can verify a
// re-executed shard re-derived identical observations, and the digest a
// remote worker's batch for the same shard carries. Unobserved shards
// return "". The batch is built on demand, so a caller that never asks
// (Run) never sorts or hashes one.
func (v *Valuation) ShardDigest(shard int) string {
	if shard < 0 || shard >= len(v.shards) || !v.shards[shard].done {
		return ""
	}
	s := v.shards[shard]
	return utility.NewCellBatch(v.tr.NumClients(), v.cells[s.lo:s.hi], v.vals[s.lo:s.hi]).Digest
}

// ShardCells returns the cells a scheduled observation shard pays, as a
// batch with zero values — the cell list a lease of the shard carries. A
// worker's TrainedRun.PayCells answer for it carries the shard's digest.
func (v *Valuation) ShardCells(ctx context.Context, shard int) (*CellBatch, error) {
	if shard < 0 || shard >= len(v.shards) {
		return nil, stageErr(ctx, "valuation", fmt.Errorf("observation shard %d out of [0,%d)", shard, len(v.shards)))
	}
	s := v.shards[shard]
	return utility.NewCellBatch(v.tr.NumClients(), v.cells[s.lo:s.hi], make([]float64, s.hi-s.lo)), nil
}

// Complete is the wave checkpoint. After wave 0 it first computes FedSV
// from its cells' values (StageFedSV). It then hands the plan the values
// of the cells the plan listed, which records them in serial order and
// solves the matrix-completion problem. It returns the number of
// observation shards of the next wave the caller must schedule before
// calling Complete again (their indices continue where the previous
// wave's left off), or 0 when the plan finished and Extract may run. A
// next wave whose cells were all listed before is advanced here, with no
// shard. Only a tolerance run schedules more; fixed-budget and exact
// pipelines always return 0 — one Complete finishes them.
func (v *Valuation) Complete(ctx context.Context) (int, error) {
	for i, s := range v.shards[v.wave:] {
		if !s.done {
			return 0, stageErr(ctx, "valuation", fmt.Errorf("observation shard %d was not run before Complete", v.wave+i))
		}
	}
	if v.fedsv != nil {
		v.emit(Progress{Stage: StageFedSV, Done: 0, Total: 1})
		start := time.Now()
		v.report.FedSV = v.fedsv.Values(v.read(v.fedsvAt))
		v.fedsv, v.fedsvAt = nil, nil
		v.emitTime(StageFedSV, -1, start)
		v.emit(Progress{Stage: StageFedSV, Done: 1, Total: 1})
	}

	v.emit(Progress{Stage: StageComplete, Done: 0, Total: 1})
	start := time.Now()
	k := 0
	for {
		more, err := v.plan.Advance(ctx, v.read(v.planAt))
		if err != nil {
			return 0, stageErr(ctx, "valuation", err)
		}
		if !more {
			break
		}
		cells, err := v.plan.Cells(ctx)
		if err != nil {
			return 0, stageErr(ctx, "valuation", err)
		}
		lo := len(v.cells)
		if v.planAt = v.list(cells); len(v.cells) > lo {
			k = v.schedule(lo)
			break
		}
	}
	v.emitTime(StageComplete, -1, start)
	v.emit(Progress{Stage: StageComplete, Done: 1, Total: 1})
	if k > 0 {
		v.emit(Progress{Stage: StageObserve, Done: int(v.observed.Load()), Total: len(v.shards)})
	}
	return k, nil
}

// Extract computes the ComFedSV values from the completed factorization
// and assembles the final report.
func (v *Valuation) Extract(ctx context.Context) (*Report, error) {
	v.emit(Progress{Stage: StageShapley, Done: 0, Total: 1})
	start := time.Now()
	res, err := v.plan.Extract(ctx)
	if err != nil {
		return nil, stageErr(ctx, "valuation", err)
	}
	if v.opts.Tolerance > 0 {
		// Prepare validated the options, so the budget resolves cleanly.
		budget, _ := valuationBudget(v.opts)
		v.report.ObservationsUsed = res.Permutations
		v.report.ObservationsBudget = budget
	}
	v.report.ComFedSV = res.Values
	v.report.ObservedDensity = res.Store.Density()
	v.report.CompletionRMSE = res.Completion.TrainRMSE
	// The index holds the distinct cells *this* valuation listed — what a
	// standalone evaluator would have paid — so run-backed reports stay
	// byte-identical to inline ones.
	v.report.UtilityCalls = len(v.cells)
	v.emitTime(StageShapley, -1, start)
	v.emit(Progress{Stage: StageShapley, Done: 1, Total: 1})
	return v.report, nil
}

// Stats returns the job's hit/miss ledger over its distinct utility
// cells: Misses is how many this job's shards evaluated, failed attempts
// included, and Hits the rest, which the run's shared cache held. Their
// sum is the report's UtilityCalls.
func (v *Valuation) Stats() EvalStats {
	misses := int(v.misses.Load())
	return EvalStats{Hits: len(v.cells) - misses, Misses: misses}
}

// Run drives every stage serially: prepare, each observation shard in
// order, complete, extract — looping observe→complete while a tolerance
// plan keeps scheduling waves. It is the one-goroutine execution of the
// same graph the comfedsvd scheduler interleaves across its pool.
func (v *Valuation) Run(ctx context.Context) (*Report, error) {
	pending, err := v.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	next := 0
	for pending > 0 {
		for i := 0; i < pending; i++ {
			if err := v.ObserveShard(ctx, next+i); err != nil {
				return nil, err
			}
		}
		next += pending
		pending, err = v.Complete(ctx)
		if err != nil {
			return nil, err
		}
	}
	return v.Extract(ctx)
}
