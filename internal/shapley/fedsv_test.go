package shapley

import (
	"context"
	"math"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

func testEvaluator(t *testing.T, clients, rounds, perRound int, seed int64) *utility.Evaluator {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(seed), clients*25+50)
	g := rng.New(seed + 1)
	train, test := dataset.TrainTestSplit(full, float64(50)/float64(full.Len()), g)
	parts := dataset.PartitionIID(train, clients, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(rounds, perRound)
	cfg.LearningRate = 0.1
	cfg.Seed = seed + 2
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	return utility.NewEvaluator(run)
}

// fedsv is exact FedSV on one worker, failing the test on error.
func fedsv(t *testing.T, e *utility.Evaluator) []float64 {
	t.Helper()
	v, err := FedSVCtx(context.Background(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFedSVLength(t *testing.T) {
	e := testEvaluator(t, 5, 4, 2, 31)
	v := fedsv(t, e)
	if len(v) != 5 {
		t.Fatalf("FedSV length %d, want 5", len(v))
	}
}

func TestFedSVFullSelectionEqualsExactShapley(t *testing.T) {
	// With every client selected every round, FedSV is the exact Shapley
	// value of the per-round-summed utility (the classical SV).
	e := testEvaluator(t, 4, 3, 4, 33)
	v := fedsv(t, e)
	gt := GroundTruth(e)
	for i := range v {
		if math.Abs(v[i]-gt[i]) > 1e-9 {
			t.Fatalf("full-participation FedSV %v != ground truth %v", v, gt)
		}
	}
}

func TestFedSVUnselectedGetZeroPerRound(t *testing.T) {
	// With a single round (no forced full round) and K=2 of 5, the three
	// unselected clients must be valued exactly 0.
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(35), 175)
	g := rng.New(36)
	train, test := dataset.TrainTestSplit(full, 50.0/175, g)
	parts := dataset.PartitionIID(train, 5, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(1, 2)
	cfg.ForceFullFirstRound = false
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	e := utility.NewEvaluator(run)
	v := fedsv(t, e)
	selected := map[int]bool{}
	for _, c := range run.Rounds[0].Selected {
		selected[c] = true
	}
	for i, x := range v {
		if !selected[i] && x != 0 {
			t.Fatalf("unselected client %d valued %v, want 0", i, x)
		}
	}
}

func TestFedSVPerRoundBalance(t *testing.T) {
	// Balance within each round: Σ_{i∈I_t} s_{t,i} = U_t(I_t). Summed over
	// rounds: Σᵢ sᵢ = Σ_t U_t(I_t). The sampled estimator balances too:
	// each permutation's marginals telescope to U_t(I_t).
	e := testEvaluator(t, 5, 4, 2, 37)
	var want float64
	n := e.Run().NumClients()
	for tr, rd := range e.Run().Rounds {
		want += e.Utility(tr, utility.FromMembers(n, rd.Selected))
	}
	for _, tc := range []struct {
		name     string
		estimate func() ([]float64, error)
	}{
		{"exact", func() ([]float64, error) { return FedSVCtx(context.Background(), e, 2) }},
		{"monte-carlo", func() ([]float64, error) { return FedSVMonteCarloCtx(context.Background(), e, 9, 38, 2) }},
	} {
		v, err := tc.estimate()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, x := range v {
			sum += x
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("%s FedSV balance: Σv = %v, want %v", tc.name, sum, want)
		}
	}
}

func TestFedSVMonteCarloApproximatesExact(t *testing.T) {
	e := testEvaluator(t, 5, 3, 3, 39)
	exact := fedsv(t, e)
	approx, err := FedSVMonteCarloCtx(context.Background(), e, 400, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-approx[i]) > 0.05*(1+math.Abs(exact[i])) {
			t.Fatalf("MC FedSV %v too far from exact %v at client %d", approx, exact, i)
		}
	}
}

func TestFedSVMonteCarloCtxMatchesAndCancels(t *testing.T) {
	e := testEvaluator(t, 5, 3, 3, 39)
	want := referenceFedSVMonteCarlo(e, 50, 40)
	got, err := FedSVMonteCarloCtx(context.Background(), e, 50, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("ctx variant diverges at client %d: %v vs %v", i, got[i], want[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FedSVMonteCarloCtx(ctx, e, 50, 40, 2); err != context.Canceled {
		t.Fatalf("cancelled FedSVMonteCarloCtx = %v, want context.Canceled", err)
	}
}

func TestFedSVMonteCarloBadSamplesErrors(t *testing.T) {
	e := testEvaluator(t, 3, 2, 2, 41)
	for _, samples := range []int{0, -3} {
		v, err := FedSVMonteCarloCtx(context.Background(), e, samples, 1, 1)
		if err == nil || v != nil {
			t.Fatalf("samples=%d: values %v, err %v; want an error", samples, v, err)
		}
	}
	if e.Calls() != 0 {
		t.Fatalf("a rejected sample count paid %d utility calls", e.Calls())
	}
}

func TestFedSVDuplicatedClientsSameRoundSameValue(t *testing.T) {
	// When both duplicates are selected in the same round, that round's
	// contributions must be identical (the symmetric case FedSV handles).
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(43), 150)
	g := rng.New(44)
	train, test := dataset.TrainTestSplit(full, 50.0/150, g)
	parts := dataset.PartitionIID(train, 4, g)
	parts[3] = parts[0].Clone()
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(1, 4) // one round, everyone selected
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	v := fedsv(t, utility.NewEvaluator(run))
	if math.Abs(v[0]-v[3]) > 1e-9 {
		t.Fatalf("duplicates valued %v and %v in a full round", v[0], v[3])
	}
}

// BenchmarkNewFedSVSampled builds the sampled FedSV of a run shaped like
// perfbench's warm_mc runs: 24 clients over 30 rounds, the first hearing
// every client and the others 3 seeded ones, so NewFedSV samples
// ⌈24·ln 24⌉+1 = 78 permutations per round, ~8,700 prefix visits in all.
// Only the selections matter to the walk, so the run holds nothing else.
func BenchmarkNewFedSVSampled(b *testing.B) {
	const clients, rounds, perRound = 24, 30, 3
	g := rng.New(5)
	run := &fl.Run{Clients: make([]*dataset.Dataset, clients), Rounds: make([]fl.Round, rounds)}
	run.Rounds[0].Selected = g.Perm(clients)
	for t := 1; t < rounds; t++ {
		run.Rounds[t].Selected = g.Perm(clients)[:perRound]
	}
	b.ReportAllocs()
	for b.Loop() {
		NewFedSV(run, 9)
	}
}
