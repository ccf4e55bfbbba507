package comfedsv

// One benchmark per paper table/figure (the experiments `cmd/comfedsv -exp`
// lists) plus ablation benches for the pipeline's design choices.
// Each bench runs a CI-sized version of the experiment and logs the series
// it regenerates (visible with `go test -bench . -v`); the full-scale
// figures are produced by `cmd/comfedsv`.

import (
	"context"
	"fmt"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/experiments"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/metrics"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// BenchmarkFig1UnfairnessProbability regenerates Fig. 1: P_s curves for
// the default participation probabilities.
func BenchmarkFig1UnfairnessProbability(b *testing.B) {
	var series []experiments.Fig1Series
	for i := 0; i < b.N; i++ {
		series = experiments.Fig1(10, experiments.Fig1Defaults())
	}
	logOnce(b, func() {
		for _, s := range series {
			b.Logf("p=%.3f: P_0=%.3f P_2=%.3f P_5=%.3f", s.P, s.Values[0], s.Values[2], s.Values[5])
		}
	})
}

// BenchmarkExample1FedSVUnfairness regenerates Example 1: the probability
// that duplicated clients differ by more than 50% under FedSV.
func BenchmarkExample1FedSVUnfairness(b *testing.B) {
	cfg := experiments.DefaultFairnessConfig(experiments.MNIST)
	cfg.Trials = 3
	cfg.SamplesPerClient = 20
	cfg.TestSamples = 50
	cfg.ForceFullFirstRound = false
	var res *experiments.FairnessResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fairness(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FedSVExceeds(0.5), "P(dFedSV>0.5)")
}

// BenchmarkFig2LowRankSpectrum regenerates Fig. 2: the utility-matrix
// spectrum on the MNIST stand-in.
func BenchmarkFig2LowRankSpectrum(b *testing.B) {
	cfg := experiments.DefaultLowRankConfig(experiments.MNIST)
	cfg.Rounds = 12
	cfg.NumClients = 8
	cfg.SamplesPerClient = 20
	cfg.TestSamples = 50
	var res *experiments.LowRankResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.LowRank(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SingularValues[4]/res.SingularValues[0], "sigma5/sigma1")
}

// BenchmarkFig3RankImpact regenerates Fig. 3: completion error vs rank.
func BenchmarkFig3RankImpact(b *testing.B) {
	cfg := experiments.DefaultRankImpactConfig()
	cfg.Rounds = 12
	cfg.NumClients = 8
	cfg.SamplesPerClient = 20
	cfg.TestSamples = 50
	cfg.Ranks = []int{1, 3, 5}
	var points []experiments.RankPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RankImpact(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, func() {
		for _, p := range points {
			b.Logf("r=%d relErr=%.4f", p.Rank, p.RelativeError)
		}
	})
}

// BenchmarkFig5FairnessCDF regenerates Fig. 5: the ECDF comparison of the
// duplicated-pair relative difference under both metrics.
func BenchmarkFig5FairnessCDF(b *testing.B) {
	cfg := experiments.DefaultFairnessConfig(experiments.MNIST)
	cfg.Trials = 3
	cfg.SamplesPerClient = 20
	cfg.TestSamples = 50
	var res *experiments.FairnessResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fairness(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FedSVExceeds(0.5), "P(dFedSV>0.5)")
	b.ReportMetric(res.ComFedSVExceeds(0.5), "P(dComFedSV>0.5)")
}

// BenchmarkFig6NoisyData regenerates Fig. 6: Spearman correlation of each
// metric with the true data-quality ranking.
func BenchmarkFig6NoisyData(b *testing.B) {
	cfg := experiments.DefaultNoisyDataConfig(experiments.MNIST)
	cfg.Trials = 2
	cfg.NumClients = 6
	cfg.Rounds = 6
	cfg.SamplesPerClient = 40
	cfg.TestSamples = 60
	var res *experiments.NoisyDataResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.NoisyData(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GroundTruthCorr, "rho-truth")
	b.ReportMetric(res.FedSVCorr, "rho-fedsv")
	b.ReportMetric(res.ComFedSVCorr, "rho-comfedsv")
}

// BenchmarkFig7NoisyLabel regenerates Fig. 7: Jaccard coefficient between
// the noisy-label clients and the bottom-valued clients.
func BenchmarkFig7NoisyLabel(b *testing.B) {
	cfg := experiments.DefaultNoisyLabelConfig(experiments.MNIST)
	cfg.NumClients = 12
	cfg.NumNoisy = 3
	cfg.Rounds = 5
	cfg.SamplesPerClient = 15
	cfg.TestSamples = 40
	cfg.Participations = []float64{0.3}
	cfg.MCSamples = 40
	cfg.FedSVSamples = 3
	var res *experiments.NoisyLabelResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.NoisyLabel(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].FedSVJaccard, "jaccard-fedsv")
	b.ReportMetric(res.Points[0].ComFedSVJaccard, "jaccard-comfedsv")
}

// BenchmarkFig8Timing regenerates Fig. 8: the FedSV/ComFedSV cost ratio.
func BenchmarkFig8Timing(b *testing.B) {
	cfg := experiments.DefaultTimingConfig()
	cfg.ClientCounts = []int{10}
	cfg.Rounds = 3
	cfg.SamplesPerClient = 10
	cfg.TestSamples = 30
	var points []experiments.TimingPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Timing(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].CallRatio, "call-ratio")
}

// BenchmarkEpsRankSweep regenerates the Propositions 1–2 check: ε-rank
// growth with T.
func BenchmarkEpsRankSweep(b *testing.B) {
	cfg := experiments.DefaultEpsRankConfig()
	cfg.RoundsSweep = []int{5, 10}
	cfg.NumClients = 5
	cfg.SamplesPerClient = 15
	cfg.TestSamples = 40
	var points []experiments.EpsRankPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.EpsRank(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, func() {
		for _, p := range points {
			b.Logf("T=%d eps-rank=%d", p.Rounds, p.EpsRank)
		}
	})
}

// BenchmarkTheorem1Bound regenerates the Theorem 1 empirical check.
func BenchmarkTheorem1Bound(b *testing.B) {
	cfg := experiments.DefaultTheorem1Config()
	cfg.Rounds = 5
	cfg.SamplesPerClient = 20
	cfg.TestSamples = 40
	var res *experiments.Theorem1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Theorem1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SymmetryGap, "symmetry-gap")
	b.ReportMetric(res.Bound, "bound")
}

// --- Ablation benches ---

func benchEvaluator(b *testing.B, clients, rounds, perRound int) *utility.Evaluator {
	b.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(201), clients*25+50)
	g := rng.New(202)
	train, test := dataset.TrainTestSplit(full, float64(50)/float64(full.Len()), g)
	parts := dataset.PartitionIID(train, clients, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(rounds, perRound)
	cfg.LearningRate = 0.1
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		b.Fatal(err)
	}
	return utility.NewEvaluator(run)
}

// BenchmarkAblationWeightedRegOn/Off measure the ALS-WR design choice.
func BenchmarkAblationWeightedRegOn(b *testing.B) { benchWeightedReg(b, true) }

// BenchmarkAblationWeightedRegOff is the plain-ALS side of the ablation.
func BenchmarkAblationWeightedRegOff(b *testing.B) { benchWeightedReg(b, false) }

func benchWeightedReg(b *testing.B, wr bool) {
	e := benchEvaluator(b, 6, 6, 2)
	gt := shapley.GroundTruth(e)
	cfg := mc.DefaultConfig(3)
	cfg.WeightedReg = wr
	var res *shapley.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = shapley.ComFedSVExact(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(corr(res.Values, gt), "rho-vs-truth")
}

// BenchmarkAblationMCSamples sweeps the Monte-Carlo sample count
// (accuracy/time tradeoff of Algorithm 1).
func BenchmarkAblationMCSamples(b *testing.B) {
	e := benchEvaluator(b, 6, 5, 2)
	for _, samples := range []int{20, 80, 320} {
		b.Run(byItoa(samples), func(b *testing.B) {
			cfg := shapley.MonteCarloConfig{Samples: samples, Completion: mc.DefaultConfig(3), Seed: 203}
			for i := 0; i < b.N; i++ {
				if _, err := shapley.MonteCarlo(e, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEBH measures Algorithm 1 with and without the
// Everyone-Being-Heard round (Assumption 1): the unobserved-column count
// is the failure signal.
func BenchmarkAblationEBH(b *testing.B) {
	for _, ebh := range []bool{true, false} {
		name := "with-full-round"
		if !ebh {
			name = "without-full-round"
		}
		b.Run(name, func(b *testing.B) {
			full := dataset.GenerateImages(dataset.MNISTLikeConfig(205), 200)
			g := rng.New(206)
			train, test := dataset.TrainTestSplit(full, 50.0/200, g)
			parts := dataset.PartitionIID(train, 6, g)
			m := model.NewMLP(full.Dim(), 6, full.NumClasses)
			cfg := fl.DefaultConfig(5, 2)
			cfg.LearningRate = 0.1
			cfg.ForceFullFirstRound = ebh
			run, err := fl.TrainRun(cfg, m, parts, test)
			if err != nil {
				b.Fatal(err)
			}
			e := utility.NewEvaluator(run)
			var res *shapley.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = shapley.MonteCarlo(e, shapley.DefaultMonteCarloConfig(6, 3, 207))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.UnobservedColumns), "unobserved-columns")
		})
	}
}

// BenchmarkUtilityEvaluation measures one paid utility-matrix cell: the
// coalition's FedAvg aggregate plus the test-loss forward pass, through
// fl.Run.UtilityInto on a warmed scratch, so no memo answers it. The shapes
// are the perfbench ones: cold_mlp's MLP (64→16→10 on 100 test points) and
// durable_http's logistic regression (20 features × 10 classes on 192 test
// points).
func BenchmarkUtilityEvaluation(b *testing.B) {
	b.Run("mlp-64x16x10-test-100", func(b *testing.B) {
		all := dataset.GenerateImages(dataset.MNISTLikeConfig(210), 8*40+100)
		test, train := splitFirst(all, 100)
		benchPaidCell(b, model.NewMLP(all.Dim(), 16, all.NumClasses), dataset.PartitionIID(train, 8, rng.New(211)), test)
	})
	b.Run("logreg-20x10-test-192", func(b *testing.B) {
		cfg := dataset.DefaultSyntheticConfig(1, 1, 212)
		cfg.Dim = 20
		sizes := make([]int, 24)
		for i := range sizes {
			sizes[i] = 48
		}
		var clients, tests []*dataset.Dataset
		for _, d := range dataset.GenerateSynthetic(cfg, sizes) {
			test, train := splitFirst(d, 8)
			clients, tests = append(clients, train), append(tests, test)
		}
		benchPaidCell(b, model.NewLogisticRegression(cfg.Dim, cfg.NumClasses), clients, dataset.Concat(tests...))
	})
}

var sinkUtility float64

// splitFirst returns the first n examples of d and the rest.
func splitFirst(d *dataset.Dataset, n int) (head, rest *dataset.Dataset) {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx[:n]), d.Subset(idx[n:])
}

func benchPaidCell(b *testing.B, m model.Model, clients []*dataset.Dataset, test *dataset.Dataset) {
	run, err := fl.TrainRun(fl.DefaultConfig(2, 4), m, clients, test)
	if err != nil {
		b.Fatal(err)
	}
	var sc fl.UtilityScratch
	s := []int{0, 2, 4, 6}
	run.UtilityInto(&sc, 1, s)
	b.ReportAllocs()
	for b.Loop() {
		sinkUtility = run.UtilityInto(&sc, 1, s)
	}
}

// BenchmarkFedAvgRound measures one full FedAvg round (all local updates).
func BenchmarkFedAvgRound(b *testing.B) {
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(208), 300)
	g := rng.New(209)
	train, test := dataset.TrainTestSplit(full, 50.0/300, g)
	parts := dataset.PartitionIID(train, 10, g)
	m := model.NewMLP(full.Dim(), 8, full.NumClasses)
	cfg := fl.DefaultConfig(1, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fl.TrainRun(cfg, m, parts, test); err != nil {
			b.Fatal(err)
		}
	}
}

func corr(a, b []float64) float64 {
	return metrics.Spearman(a, b)
}

func byItoa(n int) string {
	return fmt.Sprintf("samples-%d", n)
}

func logOnce(b *testing.B, f func()) {
	b.Helper()
	f()
}

// BenchmarkBaselinesComparison regenerates the extension experiment: all
// valuation methods scored on the noisy-data detection protocol.
func BenchmarkBaselinesComparison(b *testing.B) {
	cfg := experiments.DefaultBaselinesConfig(experiments.MNIST)
	cfg.Trials = 1
	cfg.NumClients = 6
	cfg.Rounds = 5
	cfg.SamplesPerClient = 20
	cfg.TestSamples = 40
	var res *experiments.BaselinesResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Baselines(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Correlations["comfedsv"], "rho-comfedsv")
	b.ReportMetric(res.Correlations["fedsv"], "rho-fedsv")
}

// BenchmarkAblationAntithetic compares plain and antithetic permutation
// sampling in Algorithm 1 by the variance of the resulting estimates
// across seeds.
func BenchmarkAblationAntithetic(b *testing.B) {
	e := benchEvaluator(b, 6, 5, 2)
	for _, anti := range []bool{false, true} {
		name := "plain"
		if anti {
			name = "antithetic"
		}
		b.Run(name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				// Estimate client 0's value across 4 seeds and report the range.
				lo, hi := 1e18, -1e18
				for s := int64(0); s < 4; s++ {
					cfg := shapley.MonteCarloConfig{
						Samples:    40,
						Completion: mc.DefaultConfig(3),
						Antithetic: anti,
						Seed:       300 + s,
					}
					res, err := shapley.MonteCarlo(e, cfg)
					if err != nil {
						b.Fatal(err)
					}
					v := res.Values[0]
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				spread = hi - lo
			}
			b.ReportMetric(spread, "seed-spread")
		})
	}
}

// --- Hot-path benchmarks (run with -benchmem; see README "Performance &
// tuning"; the ALS-completion counterpart lives in internal/mc) ---

// BenchmarkMCObservation isolates the Monte-Carlo observation stage: the
// permutation-prefix test-loss evaluations that dominate Algorithm 1's cost
// (Section VII-D). Each iteration starts from a cold evaluator cache so the
// measured work is the distinct-cell evaluations, fanned out over the
// worker pool.
func BenchmarkMCObservation(b *testing.B) {
	e := benchEvaluator(b, 8, 6, 3)
	run := e.Run()
	g := rng.New(77)
	var cells []utility.Cell
	for round := 0; round < 6; round++ {
		for m := 0; m < 24; m++ {
			perm := g.Perm(8)
			s := utility.NewSet(8)
			for _, c := range perm[:1+m%4] {
				s.Add(c)
			}
			cells = append(cells, utility.Cell{Round: round, Subset: s})
		}
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cold := utility.NewEvaluator(run)
				if _, _, err := cold.UtilityBatchCtx(ctx, cells, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
