package experiments

import (
	"context"
	"fmt"
	"math"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/metrics"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// NoisyLabelConfig parameterizes the noisy-label detection experiment
// (Section VII-C2 / Fig. 7): NumNoisy of NumClients clients have
// FlipFraction of their labels flipped; the experiment sweeps the
// per-round participation fraction and measures the Jaccard coefficient
// between the noisy set and the bottom-NumNoisy valuations.
type NoisyLabelConfig struct {
	Kind             DatasetKind
	Rounds           int
	NumClients       int
	NumNoisy         int
	FlipFraction     float64
	SamplesPerClient int
	TestSamples      int
	Participations   []float64 // paper: {0.10, 0.20, 0.30, 0.40, 0.50}
	Rank             int
	// MCSamples is the number of Monte-Carlo permutations for ComFedSV
	// (Algorithm 1); 0 picks 2·N·ln N.
	MCSamples int
	// FedSVSamples is the per-round permutation count for the FedSV
	// Monte-Carlo estimator; 0 picks ⌈ln max(K, 2)⌉ + 1.
	FedSVSamples int
	Seed         int64
}

// DefaultNoisyLabelConfig mirrors the paper's setting scaled to a
// simulator-friendly size: 100 clients, 10 noisy with 30% flips. Rounds
// default to 30 (the paper uses 100; the Jaccard ordering stabilizes much
// earlier on the synthetic stand-ins).
func DefaultNoisyLabelConfig(kind DatasetKind) NoisyLabelConfig {
	return NoisyLabelConfig{
		Kind:             kind,
		Rounds:           30,
		NumClients:       100,
		NumNoisy:         10,
		FlipFraction:     0.3,
		SamplesPerClient: 20,
		TestSamples:      100,
		Participations:   []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Rank:             5,
		Seed:             51,
	}
}

// NoisyLabelPoint is one x-position of Fig. 7.
type NoisyLabelPoint struct {
	Participation   float64
	FedSVJaccard    float64
	ComFedSVJaccard float64
}

// NoisyLabelResult holds the Fig. 7 series for one dataset.
type NoisyLabelResult struct {
	Kind   DatasetKind
	Points []NoisyLabelPoint
	// Noisy is the index set of label-corrupted clients.
	Noisy []int
}

// NoisyLabel reproduces one dataset panel of Fig. 7.
func NoisyLabel(cfg NoisyLabelConfig) (*NoisyLabelResult, error) {
	if cfg.NumNoisy <= 0 || cfg.NumNoisy > cfg.NumClients {
		return nil, fmt.Errorf("experiments: %d noisy of %d clients", cfg.NumNoisy, cfg.NumClients)
	}
	res := &NoisyLabelResult{Kind: cfg.Kind}
	for i := 0; i < cfg.NumNoisy; i++ {
		res.Noisy = append(res.Noisy, i)
	}
	for _, part := range cfg.Participations {
		k := int(part * float64(cfg.NumClients))
		if k < 1 {
			k = 1
		}
		seed := cfg.Seed + int64(1e6*part)

		sc := Scenario{
			Kind:             cfg.Kind,
			NumClients:       cfg.NumClients,
			SamplesPerClient: cfg.SamplesPerClient,
			TestSamples:      cfg.TestSamples,
			NonIID:           false, // paper: IID split, then corruption
			Seed:             seed,
		}
		clients, test, m := sc.Build()
		g := rng.New(seed + 7)
		for _, i := range res.Noisy {
			clients[i] = clients[i].Clone()
			dataset.FlipLabels(clients[i], cfg.FlipFraction, g.Split(int64(i)))
		}

		flCfg := FLConfigFor(cfg.Kind, cfg.Rounds, k, seed+1)
		run, err := fl.TrainRun(flCfg, m, clients, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: noisy-label at %.0f%%: %w", 100*part, err)
		}

		// FedSV (Monte-Carlo; exact enumeration is infeasible at K ≥ 10).
		fedsvSamples := cfg.FedSVSamples
		if fedsvSamples <= 0 {
			fedsvSamples = int(math.Ceil(math.Log(math.Max(float64(k), 2)))) + 1
		}
		fedsvEval := utility.NewEvaluator(run)
		fedsv, err := shapley.FedSVMonteCarloCtx(context.Background(), fedsvEval, fedsvSamples, seed+2, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: noisy-label at %.0f%%: %w", 100*part, err)
		}

		// ComFedSV (Algorithm 1).
		mcSamples := cfg.MCSamples
		if mcSamples <= 0 {
			mcSamples = int(2*float64(cfg.NumClients)*math.Log(float64(cfg.NumClients))) + 1
		}
		comEval := utility.NewEvaluator(run)
		mcCfg := shapley.MonteCarloConfig{
			Samples:    mcSamples,
			Completion: mc.DefaultConfig(cfg.Rank),
			Seed:       seed + 3,
		}
		com, err := shapley.MonteCarlo(comEval, mcCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: noisy-label ComFedSV at %.0f%%: %w", 100*part, err)
		}

		res.Points = append(res.Points, NoisyLabelPoint{
			Participation:   part,
			FedSVJaccard:    metrics.Jaccard(res.Noisy, metrics.BottomK(fedsv, cfg.NumNoisy)),
			ComFedSVJaccard: metrics.Jaccard(res.Noisy, metrics.BottomK(com.Values, cfg.NumNoisy)),
		})
	}
	return res, nil
}
