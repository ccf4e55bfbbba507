package comfedsv

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"comfedsv/internal/metrics"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// accuracyFloor is the smallest median and 10th-percentile Spearman ρ
// against exact ground truth that one estimator setting may show over
// the seeds of TestAccuracyFloor.
type accuracyFloor struct{ median, p10 float64 }

// TestAccuracyFloor checks the values a job reports, not just their
// reproducibility: for 8 seeds of 8 image clients, 10 rounds and 3
// clients per round, with logistic regression and with an MLP, each run is
// valued through ValueRunCtx exactly, with a fixed budget of 200
// permutations and under tolerance 0.01 with a budget of 400, and the
// Spearman ρ of each ComFedSV vector — and of the exact run's FedSV — to
// shapley.GroundTruth of the same run is taken. A setting fails when the
// median or the 10th percentile (nearest rank: the lowest of 8) over the
// seeds falls below its floor.
//
// Calibration: each floor is the value the first run of this test
// measured on amd64, rounded down to a multiple of 0.05 and lowered by a
// further 0.05, so a floor catches a regression of the estimator rather
// than the last-bit differences between fused and unfused multiply-adds.
// Measured median / p10:
//
//	logistic regression  exact 1.000/0.952  fixed 0.833/0.381  tolerance 0.917/0.429  FedSV 1.000/1.000
//	MLP                  exact 0.750/0.119  fixed 0.667/0.024  tolerance 0.845/0.119  FedSV 0.476/0.262
//
// On this shape FedSV ranks the logistic-regression clients exactly, and
// on the MLP every ComFedSV setting has a higher median ρ than FedSV but
// a lower 10th percentile.
func TestAccuracyFloor(t *testing.T) {
	floors := map[string]accuracyFloor{
		"logistic/exact":     {0.95, 0.90},
		"logistic/fixed":     {0.75, 0.30},
		"logistic/tolerance": {0.85, 0.35},
		"logistic/fedsv":     {0.95, 0.95},
		"mlp/exact":          {0.70, 0.05},
		"mlp/fixed":          {0.60, -0.05},
		"mlp/tolerance":      {0.75, 0.05},
		"mlp/fedsv":          {0.40, 0.20},
	}
	settings := []struct {
		name      string
		samples   int
		tolerance float64
	}{
		{"exact", 0, 0},
		{"fixed", 200, 0},
		{"tolerance", 400, 0.01},
	}
	rhos := make(map[string][]float64)
	ctx := context.Background()
	for _, kind := range []struct {
		name  string
		model ModelKind
	}{{"logistic", LogisticRegression}, {"mlp", MLP}} {
		for seed := int64(1); seed <= 8; seed++ {
			clients, test := makeClients(t, 8, 20, 40, seed)
			opts := DefaultOptions(10)
			opts.Rounds = 10
			opts.ClientsPerRound = 3
			opts.Model = kind.model
			opts.HiddenUnits = 6
			if kind.model == MLP {
				opts.LearningRate = 0.1
			}
			opts.Seed = seed
			tr, err := TrainCtx(ctx, clients, test, opts)
			if err != nil {
				t.Fatal(err)
			}
			gt := shapley.GroundTruth(utility.NewEvaluator(tr.Run()))
			for _, s := range settings {
				o := opts
				o.MonteCarloSamples = s.samples
				o.Tolerance = s.tolerance
				rep, _, err := ValueRunCtx(ctx, tr, o)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", kind.name, seed, s.name, err)
				}
				key := kind.name + "/" + s.name
				rhos[key] = append(rhos[key], metrics.Spearman(rep.ComFedSV, gt))
				if s.name == "exact" {
					rhos[kind.name+"/fedsv"] = append(rhos[kind.name+"/fedsv"], metrics.Spearman(rep.FedSV, gt))
				}
			}
		}
	}
	for key, floor := range floors {
		r := slices.Sorted(slices.Values(rhos[key]))
		// Nearest-rank percentiles: the median of 8 is the mean of the
		// middle two; the 10th percentile is the ⌈0.1·8⌉ = 1st value.
		median := (r[len(r)/2-1] + r[len(r)/2]) / 2
		p10 := r[0]
		summary := fmt.Sprintf("%s: median ρ %.3f (floor %.2f), p10 %.3f (floor %.2f)", key, median, floor.median, p10, floor.p10)
		t.Log(summary)
		if median < floor.median || p10 < floor.p10 {
			t.Error(summary)
		}
	}
}
