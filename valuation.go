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
//	Prepare        final-model metrics, FedSV, observation-plan setup
//	ObserveShard×S disjoint Monte-Carlo permutation slices, or contiguous
//	               round ranges of the exact pipeline, evaluate their
//	               cells (safe to run concurrently)
//	Complete       the wave checkpoint: deterministic serial-order merge
//	               into the utility matrix, then the ALS completion solve;
//	               in tolerance mode it may return additional observation
//	               shards to schedule
//	Extract        Shapley extraction and report assembly
//
// Run drives the stages serially; Value/ValueCtx and ValueRun/ValueRunCtx
// are thin wrappers over it. The report is byte-identical (under JSON
// encoding) for every shard count, shard execution order, and shard
// concurrency: cell values are deterministic memoized functions of the
// trace, and the merge step records observations in the serial pipeline's
// order no matter how they were computed.
//
// Each Valuation owns a fresh Session over the run's shared evaluator, so
// concurrent Valuations over one TrainedRun amortize test-loss evaluations
// while UtilityCalls stays the exact per-job bill. The stage methods other
// than ObserveShard must be called in order, each after the previous stage
// (and, for Complete, every shard) finished; out-of-order calls fail loudly.
type Valuation struct {
	tr      *TrainedRun
	session *utility.Session
	opts    Options

	report   *Report
	plan     plan
	shards   int
	observed atomic.Int64
}

// plan is the stage set the exact and Monte-Carlo ComFedSV plans share.
type plan interface {
	Shards() int
	ObserveShard(ctx context.Context, shard int) error
	ShardCells(ctx context.Context, shard int) ([]utility.Cell, error)
	ShardDigest(shard int) string
	Advance(ctx context.Context) (more int, err error)
	Extract(ctx context.Context) (*shapley.Result, error)
}

// NewValuation returns a staged valuation of the run under the
// valuation-relevant options (Rank, MonteCarloSamples, Tolerance,
// MaxPermutations, Seed, Parallelism, Shards, OnProgress, OnStageTime —
// validated exactly as the inline path validates them).
func NewValuation(tr *TrainedRun, opts Options) *Valuation {
	return &Valuation{tr: tr, session: tr.eval.NewSession(), opts: opts}
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

// Prepare computes the final-model metrics and the FedSV baseline, then
// builds the ComFedSV observation plan. It returns the number of
// observation shards to schedule: Options.Shards clamped to the rounds for
// the exact pipeline, which splits its observation region by round; the
// first wave's count under a tolerance, whose Complete may schedule more.
func (v *Valuation) Prepare(ctx context.Context) (int, error) {
	budget, err := valuationBudget(v.opts)
	if err != nil {
		return 0, err
	}

	loss, acc := v.tr.finalMetrics()
	v.report = &Report{FinalTestLoss: loss, FinalAccuracy: acc}

	v.emit(Progress{Stage: StageFedSV, Done: 0, Total: 1})
	fedsvStart := time.Now()
	fedsv, err := shapley.FedSVAutoCtx(ctx, v.session, v.opts.Seed+2, v.opts.Parallelism)
	if err != nil {
		return 0, stageErr(ctx, "fedsv", err)
	}
	v.report.FedSV = fedsv
	v.emitTime(StageFedSV, -1, fedsvStart)
	v.emit(Progress{Stage: StageFedSV, Done: 1, Total: 1})

	mcCfg := mc.DefaultConfig(v.opts.Rank)
	mcCfg.Workers = v.opts.Parallelism
	// p holds a typed nil on error, so it reaches v.plan only on success.
	var p plan
	if budget > 0 {
		p, err = shapley.NewMonteCarloPlan(ctx, v.session, shapley.MonteCarloConfig{
			Samples:    budget,
			Completion: mcCfg,
			Seed:       v.opts.Seed + 1,
			Workers:    v.opts.Parallelism,
			Shards:     v.opts.Shards,
			Tolerance:  v.opts.Tolerance,
		})
	} else {
		p, err = shapley.NewExactPlan(v.session, mcCfg, v.opts.Shards)
	}
	if err != nil {
		return 0, stageErr(ctx, "valuation", err)
	}
	v.plan, v.shards = p, p.Shards()
	v.emit(Progress{Stage: StageObserve, Done: 0, Total: v.shards})
	return v.shards, nil
}

// Shards returns the observation shard count decided by Prepare.
func (v *Valuation) Shards() int { return v.shards }

// ObserveShard evaluates one observation shard's utility cells through the
// session. Distinct shards are safe to run concurrently; each uses up to
// Options.Parallelism goroutines of its own.
func (v *Valuation) ObserveShard(ctx context.Context, shard int) error {
	start := time.Now()
	if err := v.plan.ObserveShard(ctx, shard); err != nil {
		return stageErr(ctx, "valuation", err)
	}
	v.emitTime(StageObserve, shard, start)
	v.emit(Progress{Stage: StageObserve, Done: int(v.observed.Add(1)), Total: v.shards})
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
// return "".
func (v *Valuation) ShardDigest(shard int) string { return v.plan.ShardDigest(shard) }

// ShardCells returns the cells a scheduled observation shard pays, as a
// batch with zero values — the cell list a lease of the shard carries. A
// worker's TrainedRun.PayCells answer for it carries the shard's digest,
// for Monte-Carlo and exact shards alike.
func (v *Valuation) ShardCells(ctx context.Context, shard int) (*CellBatch, error) {
	cells, err := v.plan.ShardCells(ctx, shard)
	if err != nil {
		return nil, stageErr(ctx, "valuation", err)
	}
	return utility.NewCellBatch(v.tr.NumClients(), cells, make([]float64, len(cells))), nil
}

// Complete is the wave checkpoint: it merges the shard observations in
// deterministic serial order and solves the matrix-completion problem. It
// returns the number of additional observation shards the caller must
// schedule before calling Complete again (their indices continue where
// the previous wave's left off), or 0 when the plan finished and Extract
// may run. Only a tolerance run schedules more; fixed-budget and exact
// pipelines always return 0 — one Complete finishes them.
func (v *Valuation) Complete(ctx context.Context) (int, error) {
	v.emit(Progress{Stage: StageComplete, Done: 0, Total: 1})
	start := time.Now()
	more, err := v.plan.Advance(ctx)
	if err != nil {
		return 0, stageErr(ctx, "valuation", err)
	}
	v.emitTime(StageComplete, -1, start)
	v.emit(Progress{Stage: StageComplete, Done: 1, Total: 1})
	if more > 0 {
		v.shards += more
		v.emit(Progress{Stage: StageObserve, Done: int(v.observed.Load()), Total: v.shards})
	}
	return more, nil
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
	// The session counts the distinct cells *this* valuation requested —
	// what a standalone evaluator would have paid — so run-backed reports
	// stay byte-identical to inline ones.
	v.report.UtilityCalls = v.session.Calls()
	v.emitTime(StageShapley, -1, start)
	v.emit(Progress{Stage: StageShapley, Done: 1, Total: 1})
	return v.report, nil
}

// Stats returns the session's hit/miss ledger: how many of this
// valuation's distinct utility cells were amortized by the run's shared
// cache versus freshly evaluated.
func (v *Valuation) Stats() EvalStats {
	return EvalStats{Hits: v.session.Hits(), Misses: v.session.Misses()}
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
