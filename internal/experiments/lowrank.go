package experiments

import (
	"fmt"

	"comfedsv/internal/fl"
	"comfedsv/internal/mat"
	"comfedsv/internal/mc"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// LowRankConfig parameterizes the low-rankness study of Example 2 / Fig. 2:
// materialize the full utility matrix of a run and inspect its spectrum.
type LowRankConfig struct {
	Kind             DatasetKind
	Rounds           int
	ClientsPerRound  int
	NumClients       int
	SamplesPerClient int
	TestSamples      int
	NonIID           bool
	TopK             int // how many singular values to report (0 = all)
	Seed             int64
}

// DefaultLowRankConfig mirrors Example 2: 10 clients, 100 rounds, 3
// selected per round; the utility matrix is 100×2^10.
func DefaultLowRankConfig(kind DatasetKind) LowRankConfig {
	return LowRankConfig{
		Kind:             kind,
		Rounds:           100,
		ClientsPerRound:  3,
		NumClients:       10,
		SamplesPerClient: 40,
		TestSamples:      120,
		NonIID:           true,
		TopK:             20,
		Seed:             21,
	}
}

// LowRankResult reports the leading singular values of the utility matrix
// and its ε-rank at a few tolerances.
type LowRankResult struct {
	Kind           DatasetKind
	SingularValues []float64
	// EpsRanks[eps] is the spectral ε-rank surrogate (see mat.EpsRank).
	EpsRanks map[float64]int
	// MatrixRows and MatrixCols record the utility matrix shape.
	MatrixRows, MatrixCols int
}

// LowRank reproduces Example 2 / Fig. 2 for one dataset setting.
func LowRank(cfg LowRankConfig) (*LowRankResult, error) {
	eval, err := buildEvaluator(cfg.Kind, cfg.NumClients, cfg.SamplesPerClient, cfg.TestSamples,
		cfg.Rounds, cfg.ClientsPerRound, cfg.NonIID, cfg.Seed)
	if err != nil {
		return nil, err
	}
	full := utility.FullMatrix(eval, 0)
	sv := mat.SingularValues(full)
	if cfg.TopK > 0 && cfg.TopK < len(sv) {
		sv = sv[:cfg.TopK]
	}
	rows, cols := full.Dims()
	res := &LowRankResult{
		Kind:           cfg.Kind,
		SingularValues: sv,
		EpsRanks:       map[float64]int{},
		MatrixRows:     rows,
		MatrixCols:     cols,
	}
	for _, eps := range []float64{1e-1, 1e-2, 1e-3} {
		res.EpsRanks[eps] = mat.EpsRank(full, eps)
	}
	return res, nil
}

// RankImpactConfig parameterizes Example 3 / Fig. 3: the relative
// completion error ‖U − WHᵀ‖_F / ‖U‖_F as a function of the rank r.
type RankImpactConfig struct {
	Kind             DatasetKind
	Rounds           int
	ClientsPerRound  int
	NumClients       int
	SamplesPerClient int
	TestSamples      int
	NonIID           bool
	Ranks            []int
	Lambda           float64
	// WeightedReg selects ALS-WR regularization. Fig. 3 reproduces the
	// paper's LIBPMF behaviour with plain uniform regularization, which
	// exhibits the under/overfitting U-shape the paper discusses; the
	// valuation pipeline elsewhere defaults to ALS-WR (mc.DefaultConfig).
	WeightedReg bool
	Seed        int64
}

// DefaultRankImpactConfig mirrors Example 3 (MNIST, MLP, r ∈ {1..10}).
func DefaultRankImpactConfig() RankImpactConfig {
	ranks := make([]int, 10)
	for i := range ranks {
		ranks[i] = i + 1
	}
	return RankImpactConfig{
		Kind:             MNIST,
		Rounds:           100,
		ClientsPerRound:  3,
		NumClients:       10,
		SamplesPerClient: 40,
		TestSamples:      120,
		NonIID:           true,
		Ranks:            ranks,
		Lambda:           0.01,
		WeightedReg:      false,
		Seed:             31,
	}
}

// RankPoint is one point of the Fig. 3 curve.
type RankPoint struct {
	Rank          int
	RelativeError float64
	TrainRMSE     float64
}

// RankImpact reproduces Example 3 / Fig. 3: complete the partially observed
// utility matrix at several ranks and compare against the fully observed
// ground truth.
func RankImpact(cfg RankImpactConfig) ([]RankPoint, error) {
	eval, err := buildEvaluator(cfg.Kind, cfg.NumClients, cfg.SamplesPerClient, cfg.TestSamples,
		cfg.Rounds, cfg.ClientsPerRound, cfg.NonIID, cfg.Seed)
	if err != nil {
		return nil, err
	}
	full := utility.FullMatrix(eval, 0)
	out := make([]RankPoint, 0, len(cfg.Ranks))
	for _, r := range cfg.Ranks {
		mcCfg := mc.DefaultConfig(r)
		mcCfg.Lambda = cfg.Lambda
		mcCfg.WeightedReg = cfg.WeightedReg
		// The exact plan pays the observed region once; later ranks read
		// it from the evaluator's memo.
		com, err := shapley.ComFedSVExact(eval, mcCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: completing at rank %d: %w", r, err)
		}
		res := com.Completion
		relErr := mc.RelativeError(full, res, func(col int) (int, bool) {
			if col == 0 {
				return 0, false // empty-set column predicts 0
			}
			return col - 1, true // column index == mask−1 by registration order
		})
		out = append(out, RankPoint{Rank: r, RelativeError: relErr, TrainRMSE: res.TrainRMSE})
	}
	return out, nil
}

// buildEvaluator runs FedAvg on the scenario and wraps it in a memoized
// utility evaluator.
func buildEvaluator(kind DatasetKind, numClients, samplesPerClient, testSamples, rounds, perRound int, nonIID bool, seed int64) (*utility.Evaluator, error) {
	sc := Scenario{
		Kind:             kind,
		NumClients:       numClients,
		SamplesPerClient: samplesPerClient,
		TestSamples:      testSamples,
		NonIID:           nonIID,
		Seed:             seed,
	}
	clients, test, m := sc.Build()
	flCfg := FLConfigFor(kind, rounds, perRound, seed+1)
	run, err := fl.TrainRun(flCfg, m, clients, test)
	if err != nil {
		return nil, fmt.Errorf("experiments: training %v: %w", kind, err)
	}
	return utility.NewEvaluator(run), nil
}

// FLConfigFor returns the FedAvg configuration the experiments use for a
// dataset kind. The image tasks use a smaller learning rate so the test
// loss decreases gradually over the whole horizon — the regime in which
// successive utility-matrix rows are similar and the low-rank structure of
// Propositions 1–2 is pronounced (fast one-round convergence would
// concentrate all utility in round 0).
func FLConfigFor(kind DatasetKind, rounds, perRound int, seed int64) fl.Config {
	cfg := fl.DefaultConfig(rounds, perRound)
	cfg.Seed = seed
	switch kind {
	case Synthetic:
		cfg.LearningRate = 0.3
	default:
		cfg.LearningRate = 0.1
	}
	return cfg
}
