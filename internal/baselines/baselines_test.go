package baselines

import (
	"context"
	"math"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
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

func TestLeaveOneOutLength(t *testing.T) {
	e := testEvaluator(t, 5, 4, 2, 301)
	v := LeaveOneOut(e)
	if len(v) != 5 {
		t.Fatalf("length %d, want 5", len(v))
	}
}

func TestLeaveOneOutUnselectedZero(t *testing.T) {
	// One round, no full first round: unselected clients score exactly 0.
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(303), 175)
	g := rng.New(304)
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
	v := LeaveOneOut(e)
	sel := map[int]bool{}
	for _, c := range run.Rounds[0].Selected {
		sel[c] = true
	}
	for i, x := range v {
		if !sel[i] && x != 0 {
			t.Fatalf("unselected client %d scored %v", i, x)
		}
	}
}

func TestLeaveOneOutMatchesManual(t *testing.T) {
	e := testEvaluator(t, 4, 2, 2, 305)
	v := LeaveOneOut(e)
	n := 4
	want := make([]float64, n)
	for tr, rd := range e.Run().Rounds {
		if len(rd.Selected) < 2 {
			continue
		}
		full := utility.FromMembers(n, rd.Selected)
		uFull := e.Utility(tr, full)
		for _, i := range rd.Selected {
			rest := full.Clone()
			rest.Remove(i)
			want[i] += uFull - e.Utility(tr, rest)
		}
	}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("LOO mismatch at %d: %v vs %v", i, v[i], want[i])
		}
	}
}

func TestTMCShapleyApproximatesFedSV(t *testing.T) {
	// With no truncation and many samples, per-round TMC equals the exact
	// per-round Shapley over the selected set — i.e. FedSV.
	e := testEvaluator(t, 5, 3, 3, 307)
	exact, err := shapley.FedSVCtx(context.Background(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TMCShapley(e, TMCConfig{Samples: 500, TruncationTol: 0, Seed: 308})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-got[i]) > 0.05*(1+math.Abs(exact[i])) {
			t.Fatalf("TMC %v too far from FedSV %v at client %d", got, exact, i)
		}
	}
}

func TestTMCTruncationReducesCalls(t *testing.T) {
	e1 := testEvaluator(t, 5, 3, 3, 309)
	if _, err := TMCShapley(e1, TMCConfig{Samples: 50, TruncationTol: 0, Seed: 310}); err != nil {
		t.Fatal(err)
	}
	fullCalls := e1.Calls()
	e2 := testEvaluator(t, 5, 3, 3, 309)
	if _, err := TMCShapley(e2, TMCConfig{Samples: 50, TruncationTol: 10, Seed: 310}); err != nil {
		t.Fatal(err)
	}
	if e2.Calls() >= fullCalls {
		t.Fatalf("aggressive truncation should cut calls: %d vs %d", e2.Calls(), fullCalls)
	}
}

func TestTMCValidation(t *testing.T) {
	e := testEvaluator(t, 3, 2, 2, 311)
	if _, err := TMCShapley(e, TMCConfig{Samples: 0}); err == nil {
		t.Fatal("expected error for zero samples")
	}
}

func TestGroupTestingBalancePerRound(t *testing.T) {
	// The anchoring forces Σᵢ v(i) = Σ_t U_t(I_t).
	e := testEvaluator(t, 5, 3, 3, 313)
	v, err := GroupTesting(e, DefaultGroupTestingConfig(314))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	var want float64
	n := e.Run().NumClients()
	for tr, rd := range e.Run().Rounds {
		if len(rd.Selected) >= 2 {
			want += e.Utility(tr, utility.FromMembers(n, rd.Selected))
		}
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("group-testing balance: Σv = %v, want %v", sum, want)
	}
}

func TestGroupTestingRoughlyTracksFedSV(t *testing.T) {
	// With many tests the estimator should correlate with exact FedSV.
	e := testEvaluator(t, 5, 3, 3, 315)
	exact, err := shapley.FedSVCtx(context.Background(), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GroupTesting(e, GroupTestingConfig{Tests: 3000, Seed: 316})
	if err != nil {
		t.Fatal(err)
	}
	// With this many tests the estimate should be numerically close for
	// every client (exact argmax can flip between near-tied clients, so we
	// check distance, not ranking).
	for i := range exact {
		if math.Abs(exact[i]-got[i]) > 0.05*(1+math.Abs(exact[i])) {
			t.Logf("exact: %v", exact)
			t.Logf("gt:    %v", got)
			t.Fatalf("group-testing estimate too far from FedSV at client %d", i)
		}
	}
}

func TestGroupTestingValidation(t *testing.T) {
	e := testEvaluator(t, 3, 2, 2, 317)
	if _, err := GroupTesting(e, GroupTestingConfig{Tests: 0}); err == nil {
		t.Fatal("expected error for zero tests")
	}
}

func TestComputeDispatch(t *testing.T) {
	e := testEvaluator(t, 4, 2, 2, 319)
	for _, m := range AllMethods {
		v, err := Compute(m, e, 320)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(v) != 4 {
			t.Fatalf("%v: length %d", m, len(v))
		}
	}
	if _, err := Compute(Method(9), e, 1); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestMethodString(t *testing.T) {
	if LOO.String() != "leave-one-out" || TMC.String() != "tmc-shapley" || GT.String() != "group-testing" {
		t.Fatal("method names wrong")
	}
}
