// Noisy-label detection at scale: reproduce the Fig. 7 scenario — 10 of
// many clients have a large fraction of flipped labels, and a marketplace
// operator wants to find them from the valuations alone. At this client
// count the exact pipeline is infeasible, so the example exercises the
// Monte-Carlo estimator (Algorithm 1 of the paper).
//
// Run with: go run ./examples/noisylabel
package main

import (
	"fmt"
	"log"

	"comfedsv/internal/experiments"
)

func main() {
	cfg := experiments.DefaultNoisyLabelConfig(experiments.Synthetic)
	// Scaled-down defaults so the example completes in about a minute;
	// raise NumClients to 100 to match the paper's setting exactly.
	cfg.NumClients = 40
	cfg.NumNoisy = 4
	cfg.Rounds = 12
	cfg.MCSamples = 150
	cfg.Participations = []float64{0.1, 0.3, 0.5}

	fmt.Printf("%d clients, %d of them with %.0f%% flipped labels; sweeping participation\n\n",
		cfg.NumClients, cfg.NumNoisy, 100*cfg.FlipFraction)

	res, err := experiments.NoisyLabel(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("noisy clients: %v\n\n", res.Noisy)
	fmt.Println("participation\tJaccard(FedSV)\tJaccard(ComFedSV)   (bottom-valued vs truly noisy)")
	for _, p := range res.Points {
		fmt.Printf("%.0f%%\t\t%.3f\t\t%.3f\n", 100*p.Participation, p.FedSVJaccard, p.ComFedSVJaccard)
	}
	fmt.Println("\nBoth metrics generally improve with participation (the paper's Fig. 7 trend).")
	fmt.Println("At this scaled-down round budget the Monte-Carlo completion is noisy, so the")
	fmt.Println("two metrics trade places between cells; run `comfedsv -exp fig7` (or")
	fmt.Println("`-exp all` for every figure) for the full-scale numbers.")
}
