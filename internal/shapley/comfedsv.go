package shapley

import (
	"context"
	"math"

	"comfedsv/internal/mc"
	"comfedsv/internal/utility"
)

// GroundTruth computes the paper's "ground-truth" baseline: ComFedSV
// evaluated on the *fully observed* utility matrix, i.e. the exact Shapley
// value of the summed per-round utility U(S) = Σ_t U_t(S). Feasible only
// for small N (it evaluates all 2^N−1 coalitions in every round, on
// GOMAXPROCS goroutines).
func GroundTruth(e utility.Source) []float64 {
	n := e.Run().NumClients()
	full := utility.FullMatrix(e, 0)
	_, cols := full.Dims()
	summed := make([]float64, cols)
	for t := range e.Run().Rounds {
		row := full.Row(t)
		for j, v := range row {
			summed[j] += v
		}
	}
	return Exact(n, func(mask uint64) float64 { return summed[mask] })
}

// Result is the outcome of either ComFedSV pipeline: the exact Definition
// 4 pipeline (ExactPlan) or Algorithm 1 (MonteCarloPlan).
type Result struct {
	// Values are the ComFedSV valuations, one per client: exact Shapley
	// values of the completed utility, or the estimates ŝ_i of Eq. 12.
	Values []float64
	// Completion is the fitted low-rank factorization of problem (9), or
	// of the reduced problem (13).
	Completion *mc.Result
	// Store holds the observed entries fed to the completion:
	// {U_{t,S} : S ⊆ I_t}, or {U_{t,π_m(i)} : π_m(i) ⊆ I_t}.
	Store *utility.Store
	// UnobservedColumns counts permutation-prefix columns that were never
	// observed in any round; always 0 for the exact pipeline. Under
	// Assumption 1 (full first round) this is always 0; without it the
	// completion silently degrades — see the Everyone-Being-Heard
	// ablation.
	UnobservedColumns int
	// Permutations is the number of sampled permutations the Monte-Carlo
	// estimate averages over (the whole budget unless a tolerance stopped
	// early); 0 for the exact pipeline.
	Permutations int
}

// stagedPlan is the wave interface ExactPlan and MonteCarloPlan share.
type stagedPlan interface {
	Cells(ctx context.Context) ([]utility.Cell, error)
	Advance(ctx context.Context, vals []float64) (more bool, err error)
	Extract(ctx context.Context) (*Result, error)
}

// runStages pays each wave's cells through e in one batch on at most
// workers goroutines and advances the plan until no wave follows, then
// extracts the result.
func runStages(ctx context.Context, e utility.Source, p stagedPlan, workers int) (*Result, error) {
	for more := true; more; {
		cells, err := p.Cells(ctx)
		if err != nil {
			return nil, err
		}
		vals, err := e.UtilityBatchCtx(ctx, cells, workers)
		if err != nil {
			return nil, err
		}
		if more, err = p.Advance(ctx, vals); err != nil {
			return nil, err
		}
	}
	return p.Extract(ctx)
}

// ComFedSVExact runs the paper's Definition 4 pipeline without sampling:
// observe all subsets of the selected clients per round, complete the full
// T×(2^N−1) utility matrix (problem 9), and take the exact Shapley value of
// the completed, per-round-summed utility. Feasible for N ≤ ~14.
func ComFedSVExact(e utility.Source, cfg mc.Config) (*Result, error) {
	return ComFedSVExactCtx(context.Background(), e, cfg)
}

// ComFedSVExactCtx is ComFedSVExact with cooperative cancellation, checked
// before every observed cell's evaluation and between pipeline steps. The
// matrix-completion solve itself is not interruptible but is bounded by
// cfg.MaxIter. It pays an ExactPlan's cells on cfg.Workers goroutines;
// callers that pay the cells themselves use the plan directly.
func ComFedSVExactCtx(ctx context.Context, e utility.Source, cfg mc.Config) (*Result, error) {
	p, err := NewExactPlan(e.Run(), cfg)
	if err != nil {
		return nil, err
	}
	return runStages(ctx, e, p, cfg.Workers)
}

// MonteCarloConfig parameterizes Algorithm 1.
type MonteCarloConfig struct {
	// Samples is the number of Monte-Carlo permutations M. Maleki et al.
	// show M = O(N log N) suffices for bounded utilities.
	Samples int
	// Completion configures the reduced matrix-completion problem (13).
	Completion mc.Config
	// Antithetic samples permutations in reversed pairs (π, reverse π).
	// A player early in π is late in reverse(π), so the two marginal-
	// contribution estimates are negatively correlated and their average
	// has lower variance — a classical Monte-Carlo variance-reduction
	// device layered on Algorithm 1 (see BenchmarkAblationAntithetic).
	Antithetic bool
	// Seed drives permutation sampling.
	Seed int64
	// Workers bounds the number of concurrent utility evaluations when
	// MonteCarloCtx pays a wave; 0 means GOMAXPROCS. It also seeds
	// Completion.Workers when that is left 0, so one knob parallelizes the
	// whole pipeline. The estimate is bit-identical for every worker
	// count: cells are evaluated by a deterministic pipeline and recorded
	// into the Store in the serial order.
	Workers int
	// Tolerance, when positive, makes Samples a permutation budget rather
	// than a fixed count: sampling proceeds in doubling waves, and after
	// each wave the plan re-completes the utility matrix and re-estimates
	// every client over all permutations merged so far, stopping once the
	// largest absolute per-client change from the previous wave is at most
	// Tolerance (or the budget is exhausted). 0 is the fixed-budget
	// schedule: one wave of all Samples permutations. Negative, NaN, and
	// infinite values are rejected.
	Tolerance float64
}

// DefaultMonteCarloConfig returns M ≈ 2·N·ln(N) samples and the default
// completion settings at the given rank.
func DefaultMonteCarloConfig(n, rank int, seed int64) MonteCarloConfig {
	m := int(2*float64(n)*math.Log(math.Max(float64(n), 2))) + 1
	return MonteCarloConfig{Samples: m, Completion: mc.DefaultConfig(rank), Seed: seed}
}

// MonteCarlo implements Algorithm 1: sample M permutations, observe the
// utilities of permutation prefixes contained in each round's selection,
// solve the reduced completion problem (13), and estimate ComFedSV via the
// permutation form (12).
func MonteCarlo(e utility.Source, cfg MonteCarloConfig) (*Result, error) {
	return MonteCarloCtx(context.Background(), e, cfg)
}

// MonteCarloCtx is MonteCarlo with cooperative cancellation, checked at
// every observation boundary (the utility-call hot loop), between pipeline
// steps, and per permutation during setup and estimation. The matrix-
// completion solve itself is not interruptible but is bounded by
// cfg.Completion.MaxIter. It pays each of a MonteCarloPlan's waves in one
// batch, then Advance, until the plan finishes.
func MonteCarloCtx(ctx context.Context, e utility.Source, cfg MonteCarloConfig) (*Result, error) {
	p, err := NewMonteCarloPlan(ctx, e.Run(), cfg)
	if err != nil {
		return nil, err
	}
	return runStages(ctx, e, p, cfg.Workers)
}

func toEntries(obs []utility.Observation) []mc.Entry {
	out := make([]mc.Entry, len(obs))
	for i, o := range obs {
		out[i] = mc.Entry{Row: o.Row, Col: o.Col, Val: o.Val}
	}
	return out
}
