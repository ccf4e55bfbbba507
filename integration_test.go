package comfedsv

// Cross-module integration tests: the offline persistence pipeline
// (fedsim → datavalue in library form) and consistency between the
// serial, memoized, and parallel utility-matrix paths.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"comfedsv/internal/baselines"
	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/model"
	"comfedsv/internal/persist"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// exactFedSV is exact FedSV over a fresh evaluator on two workers,
// failing the test on error.
func exactFedSV(t *testing.T, run *fl.Run) []float64 {
	t.Helper()
	v, err := shapley.FedSVCtx(context.Background(), utility.NewEvaluator(run), 2)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func integrationRun(t *testing.T) *fl.Run {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(501), 200)
	g := rng.New(502)
	train, test := dataset.TrainTestSplit(full, 50.0/200, g)
	parts := dataset.PartitionIID(train, 6, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(6, 2)
	cfg.LearningRate = 0.1
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestOfflinePipelineRoundTrip(t *testing.T) {
	// Record a trace, serialize it, reload it, and verify every valuation
	// method produces identical results on the original and reloaded runs.
	run := integrationRun(t)
	var buf bytes.Buffer
	if err := persist.SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("%s: value %d differs after round-trip: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	check("fedsv", exactFedSV(t, run), exactFedSV(t, loaded))

	comA, err := shapley.ComFedSVExact(utility.NewEvaluator(run), mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	comB, err := shapley.ComFedSVExact(utility.NewEvaluator(loaded), mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	check("comfedsv", comA.Values, comB.Values)

	for _, method := range baselines.AllMethods {
		va, err := baselines.Compute(method, utility.NewEvaluator(run), 503)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := baselines.Compute(method, utility.NewEvaluator(loaded), 503)
		if err != nil {
			t.Fatal(err)
		}
		check(method.String(), va, vb)
	}
}

func TestUtilityPathsAgree(t *testing.T) {
	// The run's direct utility, the serial and the parallel full matrix,
	// the batch path on an evaluator and on a session, and the memoized
	// single-cell lookup must all agree cell-for-cell, bit for bit.
	run := integrationRun(t)
	serial := utility.FullMatrix(utility.NewEvaluator(run), 1)
	parallel := utility.FullMatrix(utility.NewEvaluator(run), 3)

	n := run.NumClients()
	var cells []utility.Cell
	var want []float64
	for tr := 0; tr < len(run.Rounds); tr++ {
		for mask := uint64(1); mask < 1<<uint(n); mask += 7 { // sample cells
			s := utility.FromMask(n, mask)
			cells = append(cells, utility.Cell{Round: tr, Subset: s})
			want = append(want, run.Utility(tr, s.Members()))
		}
	}
	e := utility.NewEvaluator(run)
	for _, src := range []utility.Source{e, utility.NewEvaluator(run).NewSession()} {
		got, err := src.UtilityBatchCtx(context.Background(), cells, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if got[i] != want[i] {
				t.Fatalf("%T batch cell %d: %v vs %v", src, i, got[i], want[i])
			}
		}
	}
	for i, c := range cells {
		col := int(c.Subset.Mask())
		if s := serial.At(c.Round, col); s != want[i] {
			t.Fatalf("serial cell %d: %v vs %v", i, s, want[i])
		}
		if p := parallel.At(c.Round, col); p != want[i] {
			t.Fatalf("parallel cell %d: %v vs %v", i, p, want[i])
		}
		if m := e.Utility(c.Round, c.Subset); m != want[i] {
			t.Fatalf("memoized cell %d: %v vs %v", i, m, want[i])
		}
	}
}

func TestGroundTruthAdditivityAcrossRoundSplits(t *testing.T) {
	// Theorem 1's additivity axiom, integration-level: valuations computed
	// over rounds [0,3) plus rounds [3,6) equal valuations over [0,6),
	// because U = U₁ + U₂ splits by rounds.
	run := integrationRun(t)
	firstHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[:3], Final: run.Final}
	secondHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[3:], Final: run.Final}

	whole := shapley.GroundTruth(utility.NewEvaluator(run))
	a := shapley.GroundTruth(utility.NewEvaluator(firstHalf))
	b := shapley.GroundTruth(utility.NewEvaluator(secondHalf))
	for i := range whole {
		if math.Abs(whole[i]-(a[i]+b[i])) > 1e-9 {
			t.Fatalf("additivity violated at client %d: %v vs %v + %v", i, whole[i], a[i], b[i])
		}
	}
}

func TestFedSVAdditivityAcrossRoundSplits(t *testing.T) {
	// FedSV is a per-round sum, so it is exactly additive across round
	// partitions as well.
	run := integrationRun(t)
	firstHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[:3], Final: run.Final}
	secondHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[3:], Final: run.Final}

	whole := exactFedSV(t, run)
	a := exactFedSV(t, firstHalf)
	b := exactFedSV(t, secondHalf)
	for i := range whole {
		if math.Abs(whole[i]-(a[i]+b[i])) > 1e-9 {
			t.Fatalf("additivity violated at client %d", i)
		}
	}
}
