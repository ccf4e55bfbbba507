// Package comfedsv is a Go implementation of ComFedSV — the Completed
// Federated Shapley Value of Fan et al., "Improving Fairness for Data
// Valuation in Horizontal Federated Learning" (ICDE 2022) — together with
// every substrate it needs: a FedAvg training engine, from-scratch models,
// the utility matrix, low-rank matrix completion, and the FedSV baseline of
// Wang et al.
//
// The package exposes a small façade over the internal pipeline:
//
//	report, err := comfedsv.Value(clients, test, comfedsv.Options{...})
//
// trains a federated model on the clients' data and returns FedSV and
// ComFedSV valuations for every client. See examples/ for runnable
// scenarios and cmd/comfedsv for the experiment harness that regenerates
// every figure of the paper.
package comfedsv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// Client is one data owner's local dataset: X[i] is a feature vector and
// Y[i] its class label in [0, NumClasses) of the enclosing call.
type Client struct {
	X [][]float64
	Y []int
}

// ModelKind selects the classifier trained by FedAvg.
type ModelKind int

const (
	// LogisticRegression is multinomial logistic regression — the strongly
	// convex setting of the paper's theory (Propositions 1–2).
	LogisticRegression ModelKind = iota
	// MLP is a one-hidden-layer perceptron.
	MLP
)

// Options configures the valuation pipeline. The zero value is not valid;
// start from DefaultOptions.
type Options struct {
	// NumClasses is the number of label classes across all clients.
	NumClasses int
	// Rounds is the number of FedAvg rounds T.
	Rounds int
	// ClientsPerRound is the per-round selection size K.
	ClientsPerRound int
	// LearningRate is the initial FedAvg learning rate.
	LearningRate float64
	// Model selects the classifier.
	Model ModelKind
	// HiddenUnits sizes the MLP hidden layer (ignored for logistic regression).
	HiddenUnits int
	// Rank is the matrix-completion rank r.
	Rank int
	// MonteCarloSamples, if positive, uses Algorithm 1 with that many
	// permutations; zero uses the exact pipeline (requires ≤ 14 clients).
	// When Tolerance is set it is the adaptive run's permutation *budget* —
	// the ceiling sampling never exceeds. Negative values are rejected.
	MonteCarloSamples int
	// Tolerance, if positive, switches the Monte-Carlo pipeline to
	// adaptive (tolerance-driven) valuation: permutations are sampled in
	// doubling waves and the run stops as soon as no client's ComFedSV
	// estimate moved more than Tolerance between consecutive waves,
	// instead of exhausting the full budget. Requires a positive
	// permutation budget (MonteCarloSamples or MaxPermutations). The
	// stopping decision is a pure function of the seed and the merged
	// estimates, so adaptive reports stay byte-identical across
	// Parallelism and Shards settings. Zero keeps the fixed-budget
	// pipeline; negative, NaN, or infinite values are rejected.
	Tolerance float64
	// MaxPermutations, if positive, is an explicit permutation budget for
	// adaptive valuation — an alias for MonteCarloSamples that reads
	// better next to Tolerance. Setting it without Tolerance, or setting
	// both it and MonteCarloSamples to different values, is rejected.
	MaxPermutations int
	// Seed makes the run deterministic.
	Seed int64
	// Parallelism bounds the number of CPU-bound goroutines one valuation
	// stage may use for its hot path — the ALS completion solves (factor
	// rows and restarts) and each observation shard's test-loss
	// evaluations, which cover every cell the job reads: FedSV's and the
	// plan's. 0 means GOMAXPROCS. The computed values are bit-identical
	// for every setting; only wall-clock time changes.
	Parallelism int
	// Shards splits each observation wave into that many independently
	// schedulable shards (0 means 1), clamped to the wave's new cells: a
	// shard owns a contiguous chunk of the wave's cell list, not a range
	// of rounds or permutations. A wave lists only cells no earlier wave
	// listed, and wave 0's list holds FedSV's cells as well as the plan's,
	// so the shards pay every cell of the job once and Prepare pays none;
	// a later wave with no new cell has no shard. The one-shot Value path runs them serially; the
	// comfedsvd scheduler runs them as separate tasks on its shared worker
	// pool so one large valuation no longer monopolizes a worker. The
	// computed values are bit-identical for every setting.
	Shards int
	// OnProgress, if non-nil, receives pipeline progress updates. Shard
	// observation events may be delivered concurrently when a scheduler
	// runs shards in parallel, so the callback must be safe for concurrent
	// use and cheap; it does not affect the computed values.
	OnProgress func(Progress) `json:"-"`
	// OnStageTime, if non-nil, receives the wall-clock duration of every
	// completed pipeline stage execution — the telemetry hook the comfedsvd
	// daemon feeds its per-stage latency histograms from. Observation-shard
	// events may be delivered concurrently when a scheduler runs shards in
	// parallel, so the callback must be safe for concurrent use and cheap;
	// it only observes and never affects the computed values.
	OnStageTime func(StageTiming) `json:"-"`
}

// StageTiming reports one completed pipeline-stage execution to
// Options.OnStageTime.
type StageTiming struct {
	// Stage is one of StageTrain, StageFedSV, StageObserve, StageComplete,
	// StageShapley.
	Stage string
	// Shard is the observation shard index for StageObserve events, -1 for
	// every other stage.
	Shard int
	// Duration is the stage execution's wall-clock time.
	Duration time.Duration
}

// Progress describes how far a valuation run has advanced. During the
// StageTrain stage Done counts completed FedAvg rounds out of Total, and
// during StageObserve it counts completed observation shards; the
// remaining stages report Done = 0 on entry and Done = Total = 1 when
// complete.
type Progress struct {
	// Stage is one of StageTrain, StageFedSV, StageObserve, StageComplete,
	// StageShapley.
	Stage string `json:"stage"`
	// Done is the number of completed units within the stage.
	Done int `json:"done"`
	// Total is the number of units in the stage.
	Total int `json:"total"`
}

// Valuation pipeline stages reported through Options.OnProgress, in
// execution order: FedAvg training, the observation shards (which pay
// FedSV's cells and ComFedSV's), the FedSV baseline (computed from wave
// 0's values), the matrix-completion solve, and the Shapley extraction.
const (
	StageTrain    = "train"
	StageFedSV    = "fedsv"
	StageObserve  = "observe"
	StageComplete = "complete"
	StageShapley  = "shapley"
)

// DefaultOptions returns a configuration suitable for tens of clients.
func DefaultOptions(numClasses int) Options {
	return Options{
		NumClasses:      numClasses,
		Rounds:          20,
		ClientsPerRound: 3,
		LearningRate:    0.5,
		Model:           LogisticRegression,
		HiddenUnits:     16,
		Rank:            5,
		Seed:            1,
	}
}

// Report is the outcome of a valuation run. The JSON encoding is the wire
// and on-disk format used by the comfedsvd service.
type Report struct {
	// FedSV holds the federated Shapley values (Wang et al., Definition 2),
	// computed by exact per-round enumeration when every round selects at
	// most 20 clients and otherwise by the paper's seeded sampled-permutation
	// estimator — deterministic either way.
	FedSV []float64 `json:"fedsv"`
	// ComFedSV holds the completed federated Shapley values (Definition 4).
	ComFedSV []float64 `json:"comfedsv"`
	// FinalTestLoss is the test loss of the final global model.
	FinalTestLoss float64 `json:"final_test_loss"`
	// FinalAccuracy is the test accuracy of the final global model.
	FinalAccuracy float64 `json:"final_accuracy"`
	// ObservedDensity is the fraction of utility-matrix cells observed
	// before completion.
	ObservedDensity float64 `json:"observed_density"`
	// CompletionRMSE is the observed-entry RMSE of the fitted factorization.
	CompletionRMSE float64 `json:"completion_rmse"`
	// UtilityCalls counts the distinct test-loss evaluations performed.
	UtilityCalls int `json:"utility_calls"`
	// ObservationsUsed is the number of sampled permutations an adaptive
	// (tolerance-driven) run merged before its estimates converged. Zero
	// (omitted) for fixed-budget and exact runs, which always consume
	// their whole plan.
	ObservationsUsed int `json:"observations_used,omitempty"`
	// ObservationsBudget is the permutation budget the adaptive run was
	// capped at — what a fixed-budget run with the same options would have
	// consumed. Zero (omitted) outside adaptive mode.
	ObservationsBudget int `json:"observations_budget,omitempty"`
}

// Value trains a federated model on the clients' data and values every
// client with both FedSV and ComFedSV. The test client holds the central
// server's held-out evaluation data D_c.
func Value(clients []Client, test Client, opts Options) (*Report, error) {
	return ValueCtx(context.Background(), clients, test, opts)
}

// ValueCtx is Value with cooperative cancellation: the context is checked
// at every FedAvg round boundary, at every valuation round/permutation
// boundary, and between pipeline stages, and a cancelled call returns
// ctx.Err(). A context that is never cancelled yields exactly Value's
// result.
//
// ValueCtx drives the same staged Valuation the comfedsvd scheduler
// executes task by task, just serially in one goroutine — that shared code
// path is what makes service reports byte-identical to direct calls.
func ValueCtx(ctx context.Context, clients []Client, test Client, opts Options) (*Report, error) {
	tr, err := TrainCtx(ctx, clients, test, opts)
	if err != nil {
		return nil, err
	}
	// The run is private to this call, so the job's distinct cells are
	// exactly the evaluation bill a standalone evaluator pays.
	return NewValuation(tr, opts).Run(ctx)
}

// TrainedRun is a completed FedAvg training trace bundled with a shared,
// goroutine-safe evaluator over its utility matrix. It is the unit the
// comfedsvd run registry shares across valuation jobs: training happens
// once, and every ValueRunCtx call against the same TrainedRun reuses the
// memo table, amortizing the test-loss evaluations that dominate valuation
// cost (Section VII-D).
type TrainedRun struct {
	run  *fl.Run
	eval *utility.Evaluator

	// Final-model metrics are deterministic functions of the trace;
	// computing them once per run (not once per valuation) keeps repeated
	// valuations from paying full test-set passes the shared cache exists
	// to amortize.
	metricsOnce sync.Once
	finalLoss   float64
	finalAcc    float64
}

// finalMetrics returns the final global model's test loss and accuracy,
// computed on first use and shared by every valuation over this run.
func (tr *TrainedRun) finalMetrics() (loss, acc float64) {
	tr.metricsOnce.Do(func() {
		tr.finalLoss = tr.run.Model.Loss(tr.run.Final, tr.run.Test)
		tr.finalAcc = model.Accuracy(tr.run.Model, tr.run.Final, tr.run.Test)
	})
	return tr.finalLoss, tr.finalAcc
}

// NewTrainedRun wraps an existing training trace (e.g. one loaded from a
// persist.RunStore) with a fresh shared evaluator.
func NewTrainedRun(run *fl.Run) *TrainedRun {
	return &TrainedRun{run: run, eval: utility.NewEvaluator(run)}
}

// Run returns the underlying training trace (for persistence).
func (tr *TrainedRun) Run() *fl.Run { return tr.run }

// NumClients returns the number of participating clients.
func (tr *TrainedRun) NumClients() int { return tr.run.NumClients() }

// NumRounds returns the number of recorded FedAvg rounds.
func (tr *TrainedRun) NumRounds() int { return len(tr.run.Rounds) }

// CacheStats returns the shared evaluator's cumulative hit/miss ledger
// across every valuation that used this run.
func (tr *TrainedRun) CacheStats() EvalStats {
	return EvalStats{Hits: tr.eval.Hits(), Misses: tr.eval.Calls()}
}

// EvalStats is a utility-cache ledger: Misses counts distinct test-loss
// evaluations paid for, Hits counts lookups served from the memo table.
type EvalStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// CellBatch is a canonical, digest-stamped batch of memoized utility cells
// — the unit of the persistent run-scoped cell cache, the cell list a
// shard lease carries, and the payload a remote worker returns for it.
// Re-exported so the service, the dispatch wire, and the worker daemon
// speak one type.
type CellBatch = utility.CellBatch

// PreloadCells installs previously exported cells into the shared
// evaluator's memo table, warm-starting every valuation over this run. The
// batch is digest-verified and bounds-checked before anything is
// installed; a bad batch changes nothing and returns an error so the
// caller can quarantine its source. Preloaded cells do not count as cache
// misses, so report bytes are unaffected — a warm start only skips
// test-loss evaluations that would have produced the same values. It
// returns the number of newly installed cells.
func (tr *TrainedRun) PreloadCells(b *CellBatch) (int, error) {
	return tr.eval.Preload(b)
}

// PayCells is a remote worker's whole observation step: it validates a
// lease's cell list against this run (universe, canonical order and
// digest, every round and coalition) before paying anything, pays the
// cells through the shared evaluator on at most parallelism goroutines,
// and returns them as a stamped batch with exactly the lease's
// coordinates. The batch is built as a local observation of the same
// cells builds it, so it carries the leased shard's digest.
func (tr *TrainedRun) PayCells(ctx context.Context, lease *CellBatch, parallelism int) (*CellBatch, error) {
	return tr.eval.Pay(ctx, lease, parallelism)
}

// ExportNewCells drains and returns the cells this process evaluated since
// the last drain (excluding preloaded ones) as a stamped canonical batch,
// or nil if nothing new was evaluated — what a service flush persists.
func (tr *TrainedRun) ExportNewCells() *CellBatch {
	return tr.eval.ExportNew()
}

// CellCacheStats returns the persistent-cache ledger of the shared
// evaluator: how many cells were preloaded from elsewhere and how many
// lookups those cells served (test-loss evaluations a warm start avoided).
func (tr *TrainedRun) CellCacheStats() (preloaded, warmHits int) {
	return tr.eval.Preloaded(), tr.eval.WarmHits()
}

// TrainCtx runs only the FedAvg training stage of ValueCtx and returns the
// trace ready for (repeated) valuation. Cancellation is checked at every
// FedAvg round boundary. Only the training-relevant Options fields matter
// here (NumClasses, Rounds, ClientsPerRound, LearningRate, Model,
// HiddenUnits, Seed); valuation fields like Rank and MonteCarloSamples are
// read later by ValueRunCtx, which is what lets jobs with different
// valuation settings share one trace.
func TrainCtx(ctx context.Context, clients []Client, test Client, opts Options) (*TrainedRun, error) {
	if len(clients) == 0 {
		return nil, errors.New("comfedsv: no clients")
	}
	if opts.NumClasses < 2 {
		return nil, fmt.Errorf("comfedsv: need at least 2 classes, got %d", opts.NumClasses)
	}
	locals := make([]*dataset.Dataset, len(clients))
	var dim int
	for i, c := range clients {
		d, err := toDataset(c, opts.NumClasses)
		if err != nil {
			return nil, fmt.Errorf("comfedsv: client %d: %w", i, err)
		}
		if i == 0 {
			dim = d.Dim()
		} else if d.Dim() != dim {
			return nil, fmt.Errorf("comfedsv: client %d has dim %d, want %d", i, d.Dim(), dim)
		}
		locals[i] = d
	}
	testSet, err := toDataset(test, opts.NumClasses)
	if err != nil {
		return nil, fmt.Errorf("comfedsv: test set: %w", err)
	}
	if testSet.Len() == 0 {
		return nil, errors.New("comfedsv: empty test set")
	}
	if testSet.Dim() != dim {
		return nil, fmt.Errorf("comfedsv: test set dim %d, clients dim %d", testSet.Dim(), dim)
	}

	var m model.Model
	switch opts.Model {
	case LogisticRegression:
		m = model.NewLogisticRegression(dim, opts.NumClasses)
	case MLP:
		hidden := opts.HiddenUnits
		if hidden <= 0 {
			hidden = 16
		}
		m = model.NewMLP(dim, hidden, opts.NumClasses)
	default:
		return nil, fmt.Errorf("comfedsv: unknown model kind %d", opts.Model)
	}

	flCfg := fl.Config{
		Rounds:              opts.Rounds,
		ClientsPerRound:     opts.ClientsPerRound,
		LearningRate:        opts.LearningRate,
		ForceFullFirstRound: true,
		Seed:                opts.Seed,
	}
	progress := func(p Progress) {
		if opts.OnProgress != nil {
			opts.OnProgress(p)
		}
	}
	flCfg.Progress = func(done, total int) {
		progress(Progress{Stage: StageTrain, Done: done, Total: total})
	}
	progress(Progress{Stage: StageTrain, Done: 0, Total: flCfg.Rounds})
	start := time.Now()
	run, err := fl.TrainRunCtx(ctx, flCfg, m, locals, testSet)
	if err != nil {
		return nil, stageErr(ctx, "training", err)
	}
	if opts.OnStageTime != nil {
		opts.OnStageTime(StageTiming{Stage: StageTrain, Shard: -1, Duration: time.Since(start)})
	}
	return NewTrainedRun(run), nil
}

// ValueRunCtx runs the valuation stages of ValueCtx against a precomputed
// TrainedRun, sharing its evaluator cache with every other valuation over
// the same run. Only the valuation-relevant Options fields are read
// (Rank, MonteCarloSamples, Tolerance, MaxPermutations, Seed, Parallelism,
// Shards, OnProgress, OnStageTime), and they are validated exactly as the
// inline path validates them. The returned report is byte-identical (under
// JSON encoding) to a ValueCtx call whose training options produced this
// run: the computed values are deterministic memoized functions of the
// trace, and UtilityCalls counts the distinct cells *this* valuation
// listed, not what the shared cache happened to hold. The returned
// EvalStats splits those cells into shared-cache hits and the cells this
// valuation evaluated.
func ValueRunCtx(ctx context.Context, tr *TrainedRun, opts Options) (*Report, EvalStats, error) {
	v := NewValuation(tr, opts)
	report, err := v.Run(ctx)
	if err != nil {
		return nil, EvalStats{}, err
	}
	return report, v.Stats(), nil
}

// stageErr converts a pipeline-stage failure into the caller-visible
// error: cancellation wins over the stage's own error.
func stageErr(ctx context.Context, stage string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return fmt.Errorf("comfedsv: %s: %w", stage, err)
}

func toDataset(c Client, numClasses int) (*dataset.Dataset, error) {
	d := &dataset.Dataset{X: c.X, Y: c.Y, NumClasses: numClasses}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ShapleyValues computes the classical (exact) Shapley value of an
// arbitrary cooperative game over n ≤ 20 players; u receives a bitmask of
// coalition members. Exposed for downstream users who want the game-theory
// core without the federated pipeline.
func ShapleyValues(n int, u func(coalition uint64) float64) []float64 {
	return shapley.Exact(n, u)
}
