// Command datavalue computes data valuations from a recorded federated
// training trace (produced by `fedsim -save run.json`), without retraining:
//
//	datavalue -run run.json                      # FedSV + ComFedSV
//	datavalue -run run.json -methods all         # + LOO, TMC, group-testing
//	datavalue -run run.json -out report.json     # machine-readable report
//
// This is the offline half of the paper's pipeline (Fig. 4): the server
// records local updates during training; valuation is a post-processing
// step over the utility matrix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"comfedsv/internal/baselines"
	"comfedsv/internal/mc"
	"comfedsv/internal/persist"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

func main() {
	var (
		runPath = flag.String("run", "", "path to a run recorded by fedsim -save, trace format 2 or the number arrays of format 1 (required)")
		methods = flag.String("methods", "fedsv,comfedsv", "comma-separated: fedsv, comfedsv, loo, tmc, gt, or 'all'")
		rank    = flag.Int("rank", 5, "matrix-completion rank for ComFedSV")
		samples = flag.Int("samples", 0, "Monte-Carlo permutations for ComFedSV (0 = exact for N≤14, else 2·N·lnN)")
		outPath = flag.String("out", "", "optional path for a JSON report")
		seed    = flag.Int64("seed", 1, "random seed for sampled estimators")
	)
	flag.Parse()
	if *runPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *samples < 0 {
		usage(fmt.Errorf("-samples must not be negative, got %d", *samples))
	}
	if *rank < 1 {
		usage(fmt.Errorf("-rank must be at least 1, got %d", *rank))
	}
	want := map[string]bool{}
	for _, m := range strings.Split(*methods, ",") {
		switch m = strings.TrimSpace(strings.ToLower(m)); m {
		case "":
		case "all":
			for _, x := range []string{"fedsv", "comfedsv", "loo", "tmc", "gt"} {
				want[x] = true
			}
		case "fedsv", "comfedsv", "loo", "tmc", "gt":
			want[m] = true
		default:
			usage(fmt.Errorf("unknown method %q (want fedsv, comfedsv, loo, tmc, gt or all)", m))
		}
	}
	if len(want) == 0 {
		usage(fmt.Errorf("no methods in %q", *methods))
	}

	f, err := os.Open(*runPath)
	if err != nil {
		fatal(err)
	}
	run, err := persist.LoadRun(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	n := run.NumClients()
	fmt.Printf("loaded run: %d clients, %d rounds, %d model parameters\n",
		n, len(run.Rounds), run.Model.NumParams())

	report := &persist.Report{Methods: map[string][]float64{}}
	eval := utility.NewEvaluator(run)

	if want["fedsv"] {
		values, err := shapley.FedSVAutoCtx(context.Background(), eval, *seed, 0)
		if err != nil {
			fatal(err)
		}
		report.Methods["fedsv"] = values
	}
	if want["comfedsv"] {
		values, err := comFedSV(eval, *rank, *samples, *seed)
		if err != nil {
			fatal(err)
		}
		report.Methods["comfedsv"] = values
	}
	if want["loo"] {
		report.Methods["leave-one-out"] = baselines.LeaveOneOut(eval)
	}
	if want["tmc"] {
		v, err := baselines.TMCShapley(eval, baselines.DefaultTMCConfig(*seed))
		if err != nil {
			fatal(err)
		}
		report.Methods["tmc-shapley"] = v
	}
	if want["gt"] {
		v, err := baselines.GroupTesting(eval, baselines.DefaultGroupTestingConfig(*seed))
		if err != nil {
			fatal(err)
		}
		report.Methods["group-testing"] = v
	}

	names := make([]string, 0, len(report.Methods))
	for name := range report.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\nclient")
	for _, name := range names {
		fmt.Printf("\t%s", name)
	}
	fmt.Println()
	for i := 0; i < n; i++ {
		fmt.Printf("%d", i)
		for _, name := range names {
			fmt.Printf("\t%+.5f", report.Methods[name][i])
		}
		fmt.Println()
	}
	fmt.Printf("\nutility evaluations: %d\n", eval.Calls())

	if *outPath != "" {
		out, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		err = persist.SaveReport(out, report)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", *outPath)
	}
}

func comFedSV(eval *utility.Evaluator, rank, samples int, seed int64) ([]float64, error) {
	n := eval.Run().NumClients()
	if samples == 0 && n <= 14 {
		res, err := shapley.ComFedSVExact(eval, mc.DefaultConfig(rank))
		if err != nil {
			return nil, err
		}
		return res.Values, nil
	}
	cfg := shapley.DefaultMonteCarloConfig(n, rank, seed)
	if samples > 0 {
		cfg.Samples = samples
	}
	res, err := shapley.MonteCarlo(eval, cfg)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datavalue:", err)
	os.Exit(1)
}

// usage reports a bad flag value and exits 2, before any valuation work.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "datavalue:", err)
	os.Exit(2)
}
