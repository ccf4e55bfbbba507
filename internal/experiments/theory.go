package experiments

import (
	"fmt"
	"math"

	"comfedsv/internal/fl"
	"comfedsv/internal/mat"
	"comfedsv/internal/mc"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// EpsRankConfig parameterizes the empirical check of Propositions 1–2: for
// a Lipschitz, smooth, strongly convex objective (regularized logistic
// regression) the ε-rank of the utility matrix should grow like
// O(log T / ε) in the number of rounds T.
type EpsRankConfig struct {
	RoundsSweep      []int
	Eps              float64
	NumClients       int
	ClientsPerRound  int
	SamplesPerClient int
	TestSamples      int
	Seed             int64
}

// DefaultEpsRankConfig sweeps T over a doubling range at N = 8.
func DefaultEpsRankConfig() EpsRankConfig {
	return EpsRankConfig{
		RoundsSweep:      []int{25, 50, 100, 200},
		Eps:              1e-3,
		NumClients:       8,
		ClientsPerRound:  3,
		SamplesPerClient: 30,
		TestSamples:      100,
		Seed:             71,
	}
}

// EpsRankPoint is one T-position of the sweep.
type EpsRankPoint struct {
	Rounds  int
	EpsRank int
	// LogT is ln(Rounds), the predicted growth term.
	LogT float64
}

// EpsRank runs the Propositions 1–2 sweep on strongly convex logistic
// regression.
func EpsRank(cfg EpsRankConfig) ([]EpsRankPoint, error) {
	out := make([]EpsRankPoint, 0, len(cfg.RoundsSweep))
	for _, t := range cfg.RoundsSweep {
		eval, err := buildEvaluator(Synthetic, cfg.NumClients, cfg.SamplesPerClient, cfg.TestSamples,
			t, cfg.ClientsPerRound, true, cfg.Seed)
		if err != nil {
			return nil, err
		}
		full := utility.FullMatrix(eval, 0)
		out = append(out, EpsRankPoint{
			Rounds:  t,
			EpsRank: mat.EpsRank(full, cfg.Eps),
			LogT:    math.Log(float64(t)),
		})
	}
	return out, nil
}

// Theorem1Config parameterizes the empirical check of Theorem 1: with a
// duplicated-client pair, the ComFedSV gap must be bounded by 4δ/N where
// δ = ‖U − WHᵀ‖₁ is the completion tolerance.
type Theorem1Config struct {
	Kind             DatasetKind
	NumClients       int
	Rounds           int
	ClientsPerRound  int
	SamplesPerClient int
	TestSamples      int
	Rank             int
	Seed             int64
}

// DefaultTheorem1Config uses a small universe so the full matrix is cheap.
func DefaultTheorem1Config() Theorem1Config {
	return Theorem1Config{
		Kind:             Synthetic,
		NumClients:       6,
		Rounds:           8,
		ClientsPerRound:  2,
		SamplesPerClient: 30,
		TestSamples:      100,
		Rank:             4,
		Seed:             81,
	}
}

// Theorem1Result reports the measured quantities of the bound.
type Theorem1Result struct {
	// Delta is the measured completion tolerance δ = ‖U − WHᵀ‖₁.
	Delta float64
	// Bound is 4δ/N.
	Bound float64
	// SymmetryGap is |s_0 − s_{N−1}| for the duplicated pair under ComFedSV.
	SymmetryGap float64
	// GroundTruthGap is the same gap on the fully observed matrix (exactly
	// 0 up to floating-point noise, since duplicates have equal columns).
	GroundTruthGap float64
	// Holds reports SymmetryGap ≤ Bound.
	Holds bool
}

// Theorem1 measures the fairness bound of Theorem 1 on a duplicated-client
// run.
func Theorem1(cfg Theorem1Config) (*Theorem1Result, error) {
	sc := Scenario{
		Kind:             cfg.Kind,
		NumClients:       cfg.NumClients,
		SamplesPerClient: cfg.SamplesPerClient,
		TestSamples:      cfg.TestSamples,
		NonIID:           true,
		Seed:             cfg.Seed,
	}
	clients, test, m := sc.Build()
	dup := cfg.NumClients - 1
	clients[dup] = clients[0].Clone()

	flCfg := FLConfigFor(cfg.Kind, cfg.Rounds, cfg.ClientsPerRound, cfg.Seed+1)
	run, err := fl.TrainRun(flCfg, m, clients, test)
	if err != nil {
		return nil, fmt.Errorf("experiments: theorem1: %w", err)
	}
	eval := utility.NewEvaluator(run)

	com, err := shapley.ComFedSVExact(eval, mc.DefaultConfig(cfg.Rank))
	if err != nil {
		return nil, fmt.Errorf("experiments: theorem1: %w", err)
	}
	gt := shapley.GroundTruth(eval)

	// δ = ‖U − WHᵀ‖₁ over the full matrix (empty column excluded: both
	// sides are 0 there by convention).
	full := utility.FullMatrix(eval, 0)
	t := len(run.Rounds)
	n := cfg.NumClients
	var delta float64
	for mask := uint64(1); mask < 1<<uint(n); mask++ {
		var colSum float64
		for round := 0; round < t; round++ {
			colSum += math.Abs(full.At(round, int(mask)) - com.Completion.Predict(round, int(mask)-1))
		}
		if colSum > delta {
			delta = colSum
		}
	}

	res := &Theorem1Result{
		Delta:          delta,
		Bound:          4 * delta / float64(n),
		SymmetryGap:    math.Abs(com.Values[0] - com.Values[dup]),
		GroundTruthGap: math.Abs(gt[0] - gt[dup]),
	}
	res.Holds = res.SymmetryGap <= res.Bound+1e-12
	return res, nil
}
