package experiments

import (
	"context"
	"fmt"

	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/metrics"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// FairnessConfig parameterizes the duplicated-client fairness experiment
// (Example 1 and Fig. 5): client NumClients−1 is given exactly the data of
// client 0, and the experiment measures how differently the two are valued.
type FairnessConfig struct {
	Kind             DatasetKind
	Trials           int
	Rounds           int
	ClientsPerRound  int
	NumClients       int
	SamplesPerClient int
	TestSamples      int
	Rank             int
	NonIID           bool
	// ForceFullFirstRound keeps Assumption 1 (needed by ComFedSV). The
	// paper's Example 1 demonstrates FedSV unfairness on plain FedAvg
	// without the full round; set this false to reproduce that exact
	// setting (ComFedSV is then computed on the same degraded trace).
	ForceFullFirstRound bool
	Seed                int64
}

// DefaultFairnessConfig mirrors Example 1: 10 clients, client 9 duplicates
// client 0, 10 rounds, 3 selected per round, non-IID data.
func DefaultFairnessConfig(kind DatasetKind) FairnessConfig {
	return FairnessConfig{
		Kind:                kind,
		Trials:              30,
		Rounds:              10,
		ClientsPerRound:     3,
		NumClients:          10,
		SamplesPerClient:    40,
		TestSamples:         120,
		Rank:                5,
		NonIID:              true,
		ForceFullFirstRound: true,
		Seed:                11,
	}
}

// FairnessResult holds the per-trial relative differences d_{0,N−1}
// (Eq. 7) for both metrics — the samples behind the ECDFs of Fig. 5.
type FairnessResult struct {
	Kind          DatasetKind
	FedSVDiffs    []float64
	ComFedSVDiffs []float64
}

// FedSVExceeds returns the fraction of trials with d_{0,N−1} > threshold
// under FedSV (Example 1 reports ≈65% at threshold 0.5).
func (r *FairnessResult) FedSVExceeds(threshold float64) float64 {
	return exceeds(r.FedSVDiffs, threshold)
}

// ComFedSVExceeds returns the fraction of trials with d_{0,N−1} > threshold
// under ComFedSV.
func (r *FairnessResult) ComFedSVExceeds(threshold float64) float64 {
	return exceeds(r.ComFedSVDiffs, threshold)
}

func exceeds(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Fairness runs the duplicated-client experiment. Each trial uses a fresh
// data seed and selection seed; within a trial FedSV and ComFedSV see the
// identical training trace, as in the paper's protocol.
func Fairness(cfg FairnessConfig) (*FairnessResult, error) {
	if cfg.NumClients < 2 {
		return nil, fmt.Errorf("experiments: fairness needs at least 2 clients, got %d", cfg.NumClients)
	}
	res := &FairnessResult{Kind: cfg.Kind}
	dup := cfg.NumClients - 1
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(1000*trial)
		sc := Scenario{
			Kind:             cfg.Kind,
			NumClients:       cfg.NumClients,
			SamplesPerClient: cfg.SamplesPerClient,
			TestSamples:      cfg.TestSamples,
			NonIID:           cfg.NonIID,
			Seed:             seed,
		}
		clients, test, m := sc.Build()
		clients[dup] = clients[0].Clone() // identical local data (Example 1)

		flCfg := FLConfigFor(cfg.Kind, cfg.Rounds, cfg.ClientsPerRound, seed+1)
		flCfg.ForceFullFirstRound = cfg.ForceFullFirstRound
		run, err := fl.TrainRun(flCfg, m, clients, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: fairness trial %d: %w", trial, err)
		}
		eval := utility.NewEvaluator(run)

		fedsv, err := shapley.FedSVCtx(context.Background(), eval, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: fairness trial %d: %w", trial, err)
		}
		com, err := shapley.ComFedSVExact(eval, mc.DefaultConfig(cfg.Rank))
		if err != nil {
			return nil, fmt.Errorf("experiments: fairness trial %d: %w", trial, err)
		}

		res.FedSVDiffs = append(res.FedSVDiffs, metrics.RelativeDifference(fedsv[0], fedsv[dup]))
		res.ComFedSVDiffs = append(res.ComFedSVDiffs, metrics.RelativeDifference(com.Values[0], com.Values[dup]))
	}
	return res, nil
}
