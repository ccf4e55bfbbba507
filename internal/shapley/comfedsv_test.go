package shapley

import (
	"math"
	"testing"

	"comfedsv/internal/mc"
	"comfedsv/internal/utility"
)

func TestGroundTruthBalance(t *testing.T) {
	e := testEvaluator(t, 4, 3, 2, 51)
	gt := GroundTruth(e)
	var sum float64
	for _, v := range gt {
		sum += v
	}
	// Balance: Σv = Σ_t U_t(full set).
	var want float64
	n := e.Run().NumClients()
	for tr := range e.Run().Rounds {
		want += e.Utility(tr, utility.FromMask(n, 1<<n-1))
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("ground-truth balance: Σv = %v, want %v", sum, want)
	}
}

func TestComFedSVExactRuns(t *testing.T) {
	e := testEvaluator(t, 5, 4, 2, 53)
	res, err := ComFedSVExact(e, mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 5 {
		t.Fatalf("values length %d, want 5", len(res.Values))
	}
	if res.Completion == nil || res.Store == nil {
		t.Fatal("diagnostics missing")
	}
	if res.Store.NumColumns() != (1<<5)-1 {
		t.Fatalf("registered %d columns, want 31", res.Store.NumColumns())
	}
}

func TestComFedSVExactPerfectObservationMatchesGroundTruth(t *testing.T) {
	// With full participation every round, every cell is observed; the
	// completion interpolates the data exactly (tiny λ) and ComFedSV must
	// reproduce the ground truth closely.
	e := testEvaluator(t, 4, 3, 4, 55)
	cfg := mc.DefaultConfig(4)
	cfg.Lambda = 1e-8
	cfg.WeightedReg = false
	cfg.MaxIter = 300
	res, err := ComFedSVExact(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gt := GroundTruth(e)
	for i := range gt {
		if math.Abs(res.Values[i]-gt[i]) > 0.05*(1+math.Abs(gt[i])) {
			t.Fatalf("fully observed ComFedSV %v too far from ground truth %v", res.Values, gt)
		}
	}
}

func TestComFedSVExactTooManyClients(t *testing.T) {
	e := testEvaluator(t, 3, 2, 2, 57)
	_ = e
	// Construct a fake check: the guard triggers before any heavy work.
	if _, err := ComFedSVExact(bigEvaluator(t), mc.DefaultConfig(2)); err == nil {
		t.Fatal("expected infeasibility error for large N")
	}
}

// bigEvaluator returns an evaluator over 15 clients without running
// training for all of them (only the guard is exercised).
func bigEvaluator(t *testing.T) *utility.Evaluator {
	t.Helper()
	return testEvaluator(t, 15, 1, 2, 59)
}

func TestMonteCarloMatchesExactOnSmallN(t *testing.T) {
	e := testEvaluator(t, 5, 4, 2, 61)
	exact, err := ComFedSVExact(e, mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	mcRes, err := MonteCarlo(e, MonteCarloConfig{
		Samples:    600,
		Completion: mc.DefaultConfig(3),
		Seed:       62,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The estimators share the valuation target; rankings should agree on
	// the extremes. We check rough numeric agreement.
	for i := range exact.Values {
		if math.Abs(exact.Values[i]-mcRes.Values[i]) > 0.2*(1+math.Abs(exact.Values[i])) {
			t.Logf("exact: %v", exact.Values)
			t.Logf("mc:    %v", mcRes.Values)
			t.Fatalf("Monte-Carlo estimate too far from exact at client %d", i)
		}
	}
}

func TestMonteCarloAssumption1CoversColumns(t *testing.T) {
	e := testEvaluator(t, 6, 4, 2, 63)
	res, err := MonteCarlo(e, DefaultMonteCarloConfig(6, 3, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnobservedColumns != 0 {
		t.Fatalf("with a full first round every prefix must be observed; %d missing", res.UnobservedColumns)
	}
}

func TestMonteCarloWithoutAssumption1ReportsMissing(t *testing.T) {
	// Without the full first round, most long prefixes are never observed.
	full := bigEvaluatorNoFullRound(t)
	res, err := MonteCarlo(full, DefaultMonteCarloConfig(6, 3, 66))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnobservedColumns == 0 {
		t.Fatal("expected unobserved prefix columns without Assumption 1")
	}
}

func bigEvaluatorNoFullRound(t *testing.T) *utility.Evaluator {
	t.Helper()
	e := testEvaluator(t, 6, 1, 2, 67) // reuse data plumbing
	run := e.Run()
	// Re-train without the forced full round.
	cfg := flConfigNoFull()
	run2, err := retrain(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	return utility.NewEvaluator(run2)
}

func TestMonteCarloBadSamples(t *testing.T) {
	e := testEvaluator(t, 4, 2, 2, 69)
	if _, err := MonteCarlo(e, MonteCarloConfig{Samples: 0, Completion: mc.DefaultConfig(2)}); err == nil {
		t.Fatal("expected error for zero samples")
	}
}

func TestDefaultMonteCarloConfigScales(t *testing.T) {
	small := DefaultMonteCarloConfig(10, 3, 1)
	large := DefaultMonteCarloConfig(100, 3, 1)
	if large.Samples <= small.Samples {
		t.Fatal("sample count must grow with N")
	}
	if small.Samples < 10 {
		t.Fatalf("sample count %d too small for N=10", small.Samples)
	}
}

func TestMonteCarloDuplicatesFairness(t *testing.T) {
	// The headline claim: with duplicated clients, ComFedSV values them
	// nearly equally even under partial participation.
	e := duplicatedEvaluator(t, 71)
	res, err := MonteCarlo(e, DefaultMonteCarloConfig(6, 3, 72))
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values
	gap := math.Abs(v[0] - v[5])
	scale := math.Max(math.Abs(v[0]), math.Abs(v[5]))
	if scale > 1e-9 && gap/scale > 0.5 {
		t.Fatalf("duplicated clients valued %v and %v (relative gap %.2f)", v[0], v[5], gap/scale)
	}
}

func TestMonteCarloAntitheticMatchesPlain(t *testing.T) {
	// Antithetic sampling changes the permutation set but estimates the
	// same quantity; with enough samples both agree with the exact values.
	e := testEvaluator(t, 5, 4, 2, 73)
	exact, err := ComFedSVExact(e, mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	anti, err := MonteCarlo(e, MonteCarloConfig{
		Samples:    600,
		Completion: mc.DefaultConfig(3),
		Antithetic: true,
		Seed:       74,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.Values {
		if diff := exact.Values[i] - anti.Values[i]; diff > 0.25*(1+abs(exact.Values[i])) || diff < -0.25*(1+abs(exact.Values[i])) {
			t.Fatalf("antithetic estimate %v too far from exact %v at %d", anti.Values, exact.Values, i)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
