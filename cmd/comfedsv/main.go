// Command comfedsv regenerates every figure of the paper's evaluation
// (Section VII). Each experiment prints the same rows/series the paper
// plots at the paper-shaped default scale; -exp all runs every one.
//
// Usage:
//
//	comfedsv -exp fig1|example1|fig2|fig3|fig5|fig6|fig7|fig8|eps-rank|theorem1|all [flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"comfedsv/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment to run: fig1, example1, fig2, fig3, fig5, fig6, fig7, fig8, eps-rank, theorem1, baselines, all")
		dataSet = flag.String("dataset", "", "restrict to one dataset: synthetic, mnist, fmnist, cifar10 (default: all used by the experiment)")
		trials  = flag.Int("trials", 0, "override trial count (0 = experiment default)")
		rounds  = flag.Int("rounds", 0, "override round count T (0 = experiment default)")
		scale   = flag.String("scale", "default", "preset: quick (CI-sized) or default (paper-shaped)")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := options{dataset: *dataSet, trials: *trials, rounds: *rounds, quick: *scale == "quick"}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"fig1", "example1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "eps-rank", "theorem1", "baselines"}
	}
	for _, name := range names {
		if err := runExperiment(name, opts); err != nil {
			fmt.Fprintf(os.Stderr, "comfedsv: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

type options struct {
	dataset string
	trials  int
	rounds  int
	quick   bool
}

func (o options) kinds(defaults []experiments.DatasetKind) ([]experiments.DatasetKind, error) {
	if o.dataset == "" {
		return defaults, nil
	}
	k, err := experiments.ParseDatasetKind(o.dataset)
	if err != nil {
		return nil, err
	}
	return []experiments.DatasetKind{k}, nil
}

func runExperiment(name string, opts options) error {
	fmt.Printf("== %s ==\n", name)
	switch name {
	case "fig1":
		return runFig1(opts)
	case "example1":
		return runExample1(opts)
	case "fig2":
		return runFig2(opts)
	case "fig3":
		return runFig3(opts)
	case "fig5":
		return runFig5(opts)
	case "fig6":
		return runFig6(opts)
	case "fig7":
		return runFig7(opts)
	case "fig8":
		return runFig8(opts)
	case "eps-rank":
		return runEpsRank(opts)
	case "theorem1":
		return runTheorem1(opts)
	case "baselines":
		return runBaselines(opts)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func runFig1(opts options) error {
	t := 10
	if opts.rounds > 0 {
		t = opts.rounds
	}
	series := experiments.Fig1(t, experiments.Fig1Defaults())
	fmt.Printf("P_s: probability that FedSV violates sδ-fairness after T=%d rounds\n", t)
	header := []string{"s"}
	for _, s := range series {
		header = append(header, fmt.Sprintf("p=%.3f", s.P))
	}
	fmt.Println(strings.Join(header, "\t"))
	for i := 0; i <= t; i++ {
		row := []string{fmt.Sprint(i)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.4f", s.Values[i]))
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	return nil
}

func runExample1(opts options) error {
	cfg := experiments.DefaultFairnessConfig(experiments.MNIST)
	// Example 1 demonstrates FedSV unfairness on plain FedAvg: no
	// Everyone-Being-Heard round (that is an Assumption-1 construct for
	// ComFedSV; Fig. 5 uses the shared-trace setting instead).
	cfg.ForceFullFirstRound = false
	applyFairnessOpts(&cfg, opts)
	res, err := experiments.Fairness(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("duplicated clients 0 and %d on %v, %d trials (plain FedAvg, no full round)\n",
		cfg.NumClients-1, cfg.Kind, cfg.Trials)
	fmt.Printf("P(d_FedSV > 0.5) = %.2f   (paper reports ≈ 0.65)\n", res.FedSVExceeds(0.5))
	fmt.Printf("P(d_ComFedSV > 0.5) = %.2f — computed WITHOUT Assumption 1; its degradation\n",
		res.ComFedSVExceeds(0.5))
	fmt.Println("here is why the Everyone-Being-Heard round matters (compare fig5).")
	return nil
}

func runFig2(opts options) error {
	kinds, err := opts.kinds([]experiments.DatasetKind{experiments.Synthetic, experiments.MNIST, experiments.CIFAR})
	if err != nil {
		return err
	}
	for _, k := range kinds {
		cfg := experiments.DefaultLowRankConfig(k)
		if opts.rounds > 0 {
			cfg.Rounds = opts.rounds
		}
		if opts.quick {
			cfg.Rounds = 30
			cfg.SamplesPerClient = 20
			cfg.TestSamples = 60
		}
		res, err := experiments.LowRank(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%v: utility matrix %dx%d, leading singular values:\n", k, res.MatrixRows, res.MatrixCols)
		for i, sv := range res.SingularValues {
			fmt.Printf("  σ_%-2d = %.6e\n", i+1, sv)
		}
		for _, eps := range []float64{1e-1, 1e-2, 1e-3} {
			fmt.Printf("  rank_%.0e = %d\n", eps, res.EpsRanks[eps])
		}
	}
	return nil
}

func runFig3(opts options) error {
	cfg := experiments.DefaultRankImpactConfig()
	if opts.rounds > 0 {
		cfg.Rounds = opts.rounds
	}
	if opts.quick {
		cfg.Rounds = 30
		cfg.SamplesPerClient = 20
		cfg.TestSamples = 60
	}
	points, err := experiments.RankImpact(cfg)
	if err != nil {
		return err
	}
	fmt.Println("rank r\trel. error ‖U−WHᵀ‖F/‖U‖F\ttrain RMSE")
	for _, p := range points {
		fmt.Printf("%d\t%.4f\t%.6f\n", p.Rank, p.RelativeError, p.TrainRMSE)
	}
	return nil
}

func runFig5(opts options) error {
	kinds, err := opts.kinds(experiments.AllKinds)
	if err != nil {
		return err
	}
	thresholds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, k := range kinds {
		cfg := experiments.DefaultFairnessConfig(k)
		applyFairnessOpts(&cfg, opts)
		res, err := experiments.Fairness(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%v: empirical CDF of d_{0,%d} over %d trials\n", k, cfg.NumClients-1, cfg.Trials)
		fmt.Println("t\tP(d_FedSV<=t)\tP(d_ComFedSV<=t)")
		fedsv := ecdfOf(res.FedSVDiffs)
		com := ecdfOf(res.ComFedSVDiffs)
		for _, t := range thresholds {
			fmt.Printf("%.1f\t%.3f\t%.3f\n", t, fedsv(t), com(t))
		}
	}
	return nil
}

func runFig6(opts options) error {
	kinds, err := opts.kinds(experiments.AllKinds)
	if err != nil {
		return err
	}
	fmt.Println("dataset\tground-truth\tFedSV\tComFedSV   (Spearman ρ with true noise ranking)")
	for _, k := range kinds {
		cfg := experiments.DefaultNoisyDataConfig(k)
		if opts.trials > 0 {
			cfg.Trials = opts.trials
		}
		if opts.rounds > 0 {
			cfg.Rounds = opts.rounds
		}
		if opts.quick {
			cfg.Trials = 3
			cfg.SamplesPerClient = 20
			cfg.TestSamples = 60
		}
		res, err := experiments.NoisyData(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%v\t%.3f\t%.3f\t%.3f\n", k, res.GroundTruthCorr, res.FedSVCorr, res.ComFedSVCorr)
	}
	return nil
}

func runFig7(opts options) error {
	kinds, err := opts.kinds([]experiments.DatasetKind{experiments.Synthetic, experiments.MNIST})
	if err != nil {
		return err
	}
	for _, k := range kinds {
		cfg := experiments.DefaultNoisyLabelConfig(k)
		if opts.rounds > 0 {
			cfg.Rounds = opts.rounds
		}
		if opts.quick {
			cfg.NumClients = 40
			cfg.NumNoisy = 4
			cfg.Rounds = 10
			cfg.MCSamples = 80
			cfg.TestSamples = 60
		}
		res, err := experiments.NoisyLabel(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%v: Jaccard(noisy clients, bottom-%d valuations), N=%d\n", k, cfg.NumNoisy, cfg.NumClients)
		fmt.Println("participation\tFedSV\tComFedSV")
		for _, p := range res.Points {
			fmt.Printf("%.0f%%\t%.3f\t%.3f\n", 100*p.Participation, p.FedSVJaccard, p.ComFedSVJaccard)
		}
	}
	return nil
}

func runFig8(opts options) error {
	cfg := experiments.DefaultTimingConfig()
	if opts.rounds > 0 {
		cfg.Rounds = opts.rounds
	}
	if opts.quick {
		cfg.ClientCounts = []int{10, 20, 30, 40}
		cfg.Rounds = 5
	}
	points, err := experiments.Timing(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("participation rate %.0f%% (paper: time ratio approaches it as N grows)\n", 100*cfg.Participation)
	fmt.Println("N\tFedSV(s)\tComFedSV(s)\ttime ratio\tcall ratio")
	for _, p := range points {
		fmt.Printf("%d\t%.3f\t%.3f\t%.3f\t%.3f\n", p.NumClients, p.FedSVSeconds, p.ComFedSVSeconds, p.Ratio, p.CallRatio)
	}
	return nil
}

func runEpsRank(opts options) error {
	cfg := experiments.DefaultEpsRankConfig()
	if opts.quick {
		cfg.RoundsSweep = []int{10, 20, 40}
		cfg.NumClients = 6
	}
	points, err := experiments.EpsRank(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("ε-rank of the utility matrix at ε=%.0e (Props. 1–2: O(log T))\n", cfg.Eps)
	fmt.Println("T\tln T\teps-rank")
	for _, p := range points {
		fmt.Printf("%d\t%.2f\t%d\n", p.Rounds, p.LogT, p.EpsRank)
	}
	return nil
}

func runTheorem1(opts options) error {
	cfg := experiments.DefaultTheorem1Config()
	res, err := experiments.Theorem1(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("completion tolerance δ = %.6f, bound 4δ/N = %.6f\n", res.Delta, res.Bound)
	fmt.Printf("ComFedSV symmetry gap |s_0 − s_%d| = %.6f (duplicated pair)\n", cfg.NumClients-1, res.SymmetryGap)
	fmt.Printf("ground-truth gap = %.2e (exactly 0 up to roundoff)\n", res.GroundTruthGap)
	fmt.Printf("Theorem 1 bound holds: %v\n", res.Holds)
	return nil
}

func runBaselines(opts options) error {
	kinds, err := opts.kinds([]experiments.DatasetKind{experiments.Synthetic, experiments.MNIST})
	if err != nil {
		return err
	}
	for _, k := range kinds {
		cfg := experiments.DefaultBaselinesConfig(k)
		if opts.trials > 0 {
			cfg.Trials = opts.trials
		}
		if opts.quick {
			cfg.Trials = 2
			cfg.SamplesPerClient = 30
			cfg.TestSamples = 60
		}
		res, err := experiments.Baselines(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%v: Spearman with true quality ranking / mean utility calls\n", k)
		for _, name := range experiments.BaselineOrder {
			fmt.Printf("  %-14s rho=%+.3f calls=%.0f\n", name, res.Correlations[name], res.UtilityCalls[name])
		}
	}
	return nil
}

func applyFairnessOpts(cfg *experiments.FairnessConfig, opts options) {
	if opts.trials > 0 {
		cfg.Trials = opts.trials
	}
	if opts.rounds > 0 {
		cfg.Rounds = opts.rounds
	}
	if opts.quick {
		cfg.Trials = 5
		cfg.SamplesPerClient = 20
		cfg.TestSamples = 60
	}
}

func ecdfOf(samples []float64) func(float64) float64 {
	return func(t float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		n := 0
		for _, x := range samples {
			if x <= t {
				n++
			}
		}
		return float64(n) / float64(len(samples))
	}
}
