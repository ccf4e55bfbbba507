package experiments

import (
	"context"
	"fmt"

	"comfedsv/internal/baselines"
	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/metrics"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// BaselinesConfig parameterizes the extension experiment: the Fig. 6
// noisy-data detection protocol scored for every valuation method in the
// repository — ground truth, FedSV, ComFedSV, and the three non-Shapley /
// estimator baselines from the paper's related-work section.
type BaselinesConfig struct {
	Kind             DatasetKind
	Trials           int
	Rounds           int
	ClientsPerRound  int
	NumClients       int
	SamplesPerClient int
	TestSamples      int
	NoiseStep        float64
	NoiseSigma       float64
	Rank             int
	Seed             int64
}

// DefaultBaselinesConfig mirrors the Fig. 6 defaults.
func DefaultBaselinesConfig(kind DatasetKind) BaselinesConfig {
	return BaselinesConfig{
		Kind:             kind,
		Trials:           5,
		Rounds:           10,
		ClientsPerRound:  3,
		NumClients:       10,
		SamplesPerClient: 100,
		TestSamples:      200,
		NoiseStep:        0.05,
		NoiseSigma:       3.0,
		Rank:             5,
		Seed:             91,
	}
}

// BaselinesResult maps each method name to its mean Spearman correlation
// with the true quality ranking.
type BaselinesResult struct {
	Kind         DatasetKind
	Correlations map[string]float64
	// UtilityCalls maps each method to its mean distinct-evaluation count,
	// the paper's cost model.
	UtilityCalls map[string]float64
}

// Baselines runs the extension comparison.
func Baselines(cfg BaselinesConfig) (*BaselinesResult, error) {
	truth := make([]float64, cfg.NumClients)
	for i := range truth {
		truth[i] = -float64(i)
	}
	sums := map[string]float64{}
	calls := map[string]float64{}
	record := func(name string, values []float64, cost int) {
		sums[name] += metrics.Spearman(values, truth)
		calls[name] += float64(cost)
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(1000*trial)
		sc := Scenario{
			Kind:             cfg.Kind,
			NumClients:       cfg.NumClients,
			SamplesPerClient: cfg.SamplesPerClient,
			TestSamples:      cfg.TestSamples,
			NonIID:           false,
			Seed:             seed,
		}
		clients, test, m := sc.Build()
		g := rng.New(seed + 7)
		for i, c := range clients {
			clients[i] = c.Clone()
			dataset.AddFeatureNoise(clients[i], cfg.NoiseStep*float64(i), cfg.NoiseSigma, g.Split(int64(i)))
		}
		// Data-quality detection wants the aggressive default schedule:
		// larger steps make per-client quality differences show up in the
		// utilities within the short 10-round horizon (the slow schedule
		// used by the fairness/completion experiments undertrains here).
		flCfg := fl.DefaultConfig(cfg.Rounds, cfg.ClientsPerRound)
		flCfg.Seed = seed + 1
		run, err := fl.TrainRun(flCfg, m, clients, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: baselines trial %d: %w", trial, err)
		}

		// Each method gets its own evaluator so cost accounting is clean.
		gtEval := utility.NewEvaluator(run)
		record("ground-truth", shapley.GroundTruth(gtEval), gtEval.Calls())

		fedEval := utility.NewEvaluator(run)
		fedsv, err := shapley.FedSVCtx(context.Background(), fedEval, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: baselines trial %d: %w", trial, err)
		}
		record("fedsv", fedsv, fedEval.Calls())

		comEval := utility.NewEvaluator(run)
		com, err := shapley.ComFedSVExact(comEval, mc.DefaultConfig(cfg.Rank))
		if err != nil {
			return nil, fmt.Errorf("experiments: baselines trial %d: %w", trial, err)
		}
		record("comfedsv", com.Values, comEval.Calls())

		for _, method := range baselines.AllMethods {
			e := utility.NewEvaluator(run)
			v, err := baselines.Compute(method, e, seed+2)
			if err != nil {
				return nil, fmt.Errorf("experiments: baselines trial %d %v: %w", trial, method, err)
			}
			record(method.String(), v, e.Calls())
		}
	}

	res := &BaselinesResult{
		Kind:         cfg.Kind,
		Correlations: map[string]float64{},
		UtilityCalls: map[string]float64{},
	}
	for name, s := range sums {
		res.Correlations[name] = s / float64(cfg.Trials)
		res.UtilityCalls[name] = calls[name] / float64(cfg.Trials)
	}
	return res, nil
}

// BaselineOrder is the reporting order for the comparison table.
var BaselineOrder = []string{"ground-truth", "fedsv", "comfedsv", "leave-one-out", "tmc-shapley", "group-testing"}
