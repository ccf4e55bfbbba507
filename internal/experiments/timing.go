package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// TimingConfig parameterizes the time-complexity comparison of
// Section VII-D / Fig. 8: the paper sweeps the number of clients at a fixed
// 30% participation rate and shows that time(FedSV)/time(ComFedSV)
// approaches the participation rate.
type TimingConfig struct {
	Kind             DatasetKind
	ClientCounts     []int
	Participation    float64
	Rounds           int
	SamplesPerClient int
	TestSamples      int
	Rank             int
	Seed             int64
}

// DefaultTimingConfig mirrors Fig. 8 at simulator scale.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		Kind:             Synthetic,
		ClientCounts:     []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Participation:    0.3,
		Rounds:           10,
		SamplesPerClient: 20,
		TestSamples:      100,
		Rank:             5,
		Seed:             61,
	}
}

// TimingPoint is one x-position of Fig. 8.
type TimingPoint struct {
	NumClients int
	// FedSVSeconds and ComFedSVSeconds are wall-clock valuation times.
	FedSVSeconds, ComFedSVSeconds float64
	// Ratio = FedSVSeconds / ComFedSVSeconds (the green curve; the paper
	// shows it approaching the participation rate K/N).
	Ratio float64
	// FedSVCalls and ComFedSVCalls count distinct utility evaluations —
	// the paper's cost model.
	FedSVCalls, ComFedSVCalls int
	// CallRatio = FedSVCalls / ComFedSVCalls.
	CallRatio float64
}

// Timing reproduces Fig. 8. The Monte-Carlo sample counts follow the
// paper's cost model: O(K log K) per-round permutations for FedSV and
// M = O(N log N) global permutations for ComFedSV.
func Timing(cfg TimingConfig) ([]TimingPoint, error) {
	out := make([]TimingPoint, 0, len(cfg.ClientCounts))
	for _, n := range cfg.ClientCounts {
		k := int(cfg.Participation * float64(n))
		if k < 1 {
			k = 1
		}
		seed := cfg.Seed + int64(n)
		sc := Scenario{
			Kind:             cfg.Kind,
			NumClients:       n,
			SamplesPerClient: cfg.SamplesPerClient,
			TestSamples:      cfg.TestSamples,
			NonIID:           true,
			Seed:             seed,
		}
		clients, test, m := sc.Build()
		flCfg := FLConfigFor(cfg.Kind, cfg.Rounds, k, seed+1)
		run, err := fl.TrainRun(flCfg, m, clients, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: timing at N=%d: %w", n, err)
		}

		// FedSV with K·ln K permutation samples per round, so the total call
		// count is the paper's O(T·K²·log K) (Section VII-D).
		fedsvSamples := int(math.Ceil(float64(k)*math.Log(math.Max(float64(k), 2)))) + 1
		fedsvEval := utility.NewEvaluator(run)
		start := time.Now()
		if _, err := shapley.FedSVMonteCarloCtx(context.Background(), fedsvEval, fedsvSamples, seed+2, 0); err != nil {
			return nil, fmt.Errorf("experiments: timing FedSV at N=%d: %w", n, err)
		}
		fedsvSec := time.Since(start).Seconds()

		// ComFedSV with M = 2·N·ln N permutations (Algorithm 1).
		comEval := utility.NewEvaluator(run)
		mcCfg := shapley.MonteCarloConfig{
			Samples:    int(2*float64(n)*math.Log(float64(n))) + 1,
			Completion: mc.DefaultConfig(cfg.Rank),
			Seed:       seed + 3,
		}
		start = time.Now()
		if _, err := shapley.MonteCarlo(comEval, mcCfg); err != nil {
			return nil, fmt.Errorf("experiments: timing ComFedSV at N=%d: %w", n, err)
		}
		comSec := time.Since(start).Seconds()

		pt := TimingPoint{
			NumClients:      n,
			FedSVSeconds:    fedsvSec,
			ComFedSVSeconds: comSec,
			FedSVCalls:      fedsvEval.Calls(),
			ComFedSVCalls:   comEval.Calls(),
		}
		if comSec > 0 {
			pt.Ratio = fedsvSec / comSec
		}
		if comEval.Calls() > 0 {
			pt.CallRatio = float64(fedsvEval.Calls()) / float64(comEval.Calls())
		}
		out = append(out, pt)
	}
	return out, nil
}
