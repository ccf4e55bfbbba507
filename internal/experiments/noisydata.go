package experiments

import (
	"context"
	"fmt"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/metrics"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// NoisyDataConfig parameterizes the noisy-data detection experiment
// (Section VII-C1 / Fig. 6): starting from an IID split, client i receives
// Gaussian feature noise on NoiseStep·i of its examples, so the true
// quality ranking is 0 ≻ 1 ≻ … ≻ N−1.
type NoisyDataConfig struct {
	Kind             DatasetKind
	Trials           int
	Rounds           int
	ClientsPerRound  int
	NumClients       int
	SamplesPerClient int
	TestSamples      int
	NoiseStep        float64 // fraction of corrupted examples per client index (paper: 0.05)
	NoiseSigma       float64 // stddev of the added Gaussian noise
	Rank             int
	Seed             int64
}

// DefaultNoisyDataConfig mirrors the paper: 10 clients, 10 rounds, 3
// selected per round, client i with 5·i% noisy examples.
func DefaultNoisyDataConfig(kind DatasetKind) NoisyDataConfig {
	return NoisyDataConfig{
		Kind:             kind,
		Trials:           10,
		Rounds:           10,
		ClientsPerRound:  3,
		NumClients:       10,
		SamplesPerClient: 100,
		TestSamples:      200,
		NoiseStep:        0.05,
		NoiseSigma:       3.0,
		Rank:             5,
		Seed:             41,
	}
}

// NoisyDataResult reports the mean Spearman correlation between the true
// quality ranking and the ranking induced by each metric.
type NoisyDataResult struct {
	Kind               DatasetKind
	GroundTruthCorr    float64
	FedSVCorr          float64
	ComFedSVCorr       float64
	PerTrialFedSV      []float64
	PerTrialComFedSV   []float64
	PerTrialGroundTrue []float64
}

// NoisyData reproduces one dataset column of Fig. 6.
func NoisyData(cfg NoisyDataConfig) (*NoisyDataResult, error) {
	res := &NoisyDataResult{Kind: cfg.Kind}
	// True quality score: client 0 (no noise) is best, client N−1 worst.
	truth := make([]float64, cfg.NumClients)
	for i := range truth {
		truth[i] = -float64(i)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(1000*trial)
		sc := Scenario{
			Kind:             cfg.Kind,
			NumClients:       cfg.NumClients,
			SamplesPerClient: cfg.SamplesPerClient,
			TestSamples:      cfg.TestSamples,
			NonIID:           false, // paper: start from the IID partition
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
			return nil, fmt.Errorf("experiments: noisy-data trial %d: %w", trial, err)
		}
		eval := utility.NewEvaluator(run)

		gt := shapley.GroundTruth(eval)
		fedsv, err := shapley.FedSVCtx(context.Background(), eval, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: noisy-data trial %d: %w", trial, err)
		}
		com, err := shapley.ComFedSVExact(eval, mc.DefaultConfig(cfg.Rank))
		if err != nil {
			return nil, fmt.Errorf("experiments: noisy-data trial %d: %w", trial, err)
		}

		res.PerTrialGroundTrue = append(res.PerTrialGroundTrue, metrics.Spearman(gt, truth))
		res.PerTrialFedSV = append(res.PerTrialFedSV, metrics.Spearman(fedsv, truth))
		res.PerTrialComFedSV = append(res.PerTrialComFedSV, metrics.Spearman(com.Values, truth))
	}
	res.GroundTruthCorr = mean(res.PerTrialGroundTrue)
	res.FedSVCorr = mean(res.PerTrialFedSV)
	res.ComFedSVCorr = mean(res.PerTrialComFedSV)
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
