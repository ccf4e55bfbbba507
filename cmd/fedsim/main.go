// Command fedsim runs a raw FedAvg simulation (Section III of the paper)
// and prints the per-round test loss and accuracy — useful for sanity-
// checking the training substrate independently of the valuation pipeline.
package main

import (
	"flag"
	"fmt"
	"os"

	"comfedsv/internal/experiments"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/persist"
)

func main() {
	var (
		dataSet  = flag.String("dataset", "mnist", "dataset: synthetic, mnist, fmnist, cifar10")
		clients  = flag.Int("clients", 10, "number of clients N")
		perRound = flag.Int("per-round", 3, "clients selected per round K")
		rounds   = flag.Int("rounds", 50, "number of rounds T")
		samples  = flag.Int("samples", 40, "training samples per client")
		test     = flag.Int("test", 120, "test samples held by the server")
		nonIID   = flag.Bool("non-iid", true, "use the non-IID partition")
		seed     = flag.Int64("seed", 1, "random seed")
		savePath = flag.String("save", "", "record the full training trace as JSON, float tensors as base64 blocks (trace format 2, for cmd/datavalue)")
	)
	flag.Parse()

	kind, err := experiments.ParseDatasetKind(*dataSet)
	if err != nil {
		exit(2, err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"clients", *clients}, {"samples", *samples}, {"test", *test}} {
		if f.v < 1 {
			exit(2, fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	// The non-IID split deals each client two label-sorted shards of the
	// training pool, which holds at least clients×samples examples, so two
	// samples per client always fill them.
	if *nonIID && kind != experiments.Synthetic && *samples < 2 {
		exit(2, fmt.Errorf("-samples must be at least 2 with -non-iid on %v, which deals each client two label shards; got %d", kind, *samples))
	}
	sc := experiments.Scenario{
		Kind:             kind,
		NumClients:       *clients,
		SamplesPerClient: *samples,
		TestSamples:      *test,
		NonIID:           *nonIID,
		Seed:             *seed,
	}
	locals, testSet, m := sc.Build()

	cfg := fl.DefaultConfig(*rounds, *perRound)
	cfg.Seed = *seed + 1
	run, err := fl.TrainRun(cfg, m, locals, testSet)
	if err != nil {
		exit(1, err)
	}

	fmt.Printf("FedAvg on %v: N=%d, K=%d, T=%d\n", kind, *clients, *perRound, *rounds)
	fmt.Println("round\ttest loss\tselected")
	for t, rd := range run.Rounds {
		if t%5 == 0 || t == len(run.Rounds)-1 {
			fmt.Printf("%d\t%.4f\t%v\n", t, rd.TestLoss, rd.Selected)
		}
	}
	fmt.Printf("final test loss %.4f, accuracy %.2f%%\n",
		m.Loss(run.Final, testSet), 100*model.Accuracy(m, run.Final, testSet))

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			exit(1, err)
		}
		err = persist.SaveRun(f, run)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			exit(1, err)
		}
		fmt.Printf("trace saved to %s\n", *savePath)
	}
}

func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, "fedsim:", err)
	os.Exit(code)
}
