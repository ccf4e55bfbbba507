package fl

import (
	"math"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
)

func scenario(t *testing.T, clients int) ([]*dataset.Dataset, *dataset.Dataset, model.Model) {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(17), clients*30+60)
	g := rng.New(18)
	train, test := dataset.TrainTestSplit(full, float64(60)/float64(full.Len()), g)
	parts := dataset.PartitionIID(train, clients, g)
	return parts, test, model.NewMLP(full.Dim(), 8, full.NumClasses)
}

func TestTrainRunShape(t *testing.T) {
	clients, test, m := scenario(t, 5)
	cfg := DefaultConfig(7, 2)
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rounds) != 7 {
		t.Fatalf("recorded %d rounds, want 7", len(run.Rounds))
	}
	if run.NumClients() != 5 {
		t.Fatalf("NumClients = %d, want 5", run.NumClients())
	}
	for tr, rd := range run.Rounds {
		if len(rd.Locals) != 5 {
			t.Fatalf("round %d has %d locals, want 5", tr, len(rd.Locals))
		}
		for i, l := range rd.Locals {
			if len(l) != m.NumParams() {
				t.Fatalf("round %d client %d params %d, want %d", tr, i, len(l), m.NumParams())
			}
		}
	}
	if len(run.Final) != m.NumParams() {
		t.Fatal("final model missing")
	}
}

func TestForceFullFirstRound(t *testing.T) {
	clients, test, m := scenario(t, 5)
	cfg := DefaultConfig(3, 2)
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rounds[0].Selected) != 5 {
		t.Fatalf("round 0 selected %v, want all 5 clients", run.Rounds[0].Selected)
	}
	for tr := 1; tr < 3; tr++ {
		if len(run.Rounds[tr].Selected) != 2 {
			t.Fatalf("round %d selected %d clients, want 2", tr, len(run.Rounds[tr].Selected))
		}
	}
}

func TestNoForceFullFirstRound(t *testing.T) {
	clients, test, m := scenario(t, 5)
	cfg := DefaultConfig(3, 2)
	cfg.ForceFullFirstRound = false
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rounds[0].Selected) != 2 {
		t.Fatalf("round 0 selected %d clients, want 2", len(run.Rounds[0].Selected))
	}
}

func TestTestLossDecreases(t *testing.T) {
	clients, test, m := scenario(t, 5)
	cfg := DefaultConfig(25, 3)
	cfg.LearningRate = 0.1
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	first := run.Rounds[0].TestLoss
	last := m.Loss(run.Final, test)
	if last >= first {
		t.Fatalf("training did not reduce test loss: %v → %v", first, last)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	clients, test, m := scenario(t, 4)
	cfg := DefaultConfig(5, 2)
	a, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Final {
		if a.Final[i] != b.Final[i] {
			t.Fatal("same seed must reproduce the same run")
		}
	}
	for tr := range a.Rounds {
		for i, s := range a.Rounds[tr].Selected {
			if b.Rounds[tr].Selected[i] != s {
				t.Fatal("selection must be deterministic")
			}
		}
	}
}

func TestIdenticalClientsGetIdenticalLocals(t *testing.T) {
	clients, test, m := scenario(t, 4)
	clients[3] = clients[0].Clone() // duplicate data
	cfg := DefaultConfig(4, 2)
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	for tr, rd := range run.Rounds {
		for i := range rd.Locals[0] {
			if rd.Locals[0][i] != rd.Locals[3][i] {
				t.Fatalf("round %d: identical data must yield identical local models", tr)
			}
		}
	}
}

func TestUtilityDefinition(t *testing.T) {
	clients, test, m := scenario(t, 4)
	cfg := DefaultConfig(3, 2)
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	// U_t({i}) must equal ℓ(w^t) − ℓ(w_i^{t+1}).
	got := run.Utility(1, []int{2})
	want := run.Rounds[1].TestLoss - m.Loss(run.Rounds[1].Locals[2], test)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Utility = %v, want %v", got, want)
	}
	// Averaging definition for pairs.
	avg := make([]float64, m.NumParams())
	for i := range avg {
		avg[i] = (run.Rounds[1].Locals[0][i] + run.Rounds[1].Locals[1][i]) / 2
	}
	got2 := run.Utility(1, []int{0, 1})
	want2 := run.Rounds[1].TestLoss - m.Loss(avg, test)
	if math.Abs(got2-want2) > 1e-12 {
		t.Fatalf("pair Utility = %v, want %v", got2, want2)
	}
}

func TestUtilityEmptyPanics(t *testing.T) {
	clients, test, m := scenario(t, 4)
	run, err := TrainRun(DefaultConfig(2, 2), m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run.Utility(0, nil)
}

func TestAggregationUsesOnlySelected(t *testing.T) {
	clients, test, m := scenario(t, 4)
	cfg := DefaultConfig(2, 2)
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	// Global at round 1 must equal the mean of round 0's selected locals.
	sel := run.Rounds[0].Selected
	mean := make([]float64, m.NumParams())
	for _, c := range sel {
		for i, v := range run.Rounds[0].Locals[c] {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(sel))
	}
	for i := range mean {
		if math.Abs(run.Rounds[1].Global[i]-mean[i]) > 1e-12 {
			t.Fatal("global model must be the mean of the selected locals")
		}
	}
}

func TestLearningRateDecay(t *testing.T) {
	clients, test, m := scenario(t, 4)
	cfg := DefaultConfig(5, 2)
	run, err := TrainRun(cfg, m, clients, test)
	if err != nil {
		t.Fatal(err)
	}
	for tr, rd := range run.Rounds {
		want := cfg.LearningRate / (1 + 0.01*float64(tr))
		if math.Float64bits(rd.LearningRate) != math.Float64bits(want) {
			t.Fatalf("round %d learning rate %v, want η₁/(1+0.01·t) = %v", tr, rd.LearningRate, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	clients, test, m := scenario(t, 4)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"zero per-round", func(c *Config) { c.ClientsPerRound = 0 }},
		{"per-round too large", func(c *Config) { c.ClientsPerRound = 9 }},
		{"bad lr", func(c *Config) { c.LearningRate = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3, 2)
			tc.mut(&cfg)
			if _, err := TrainRun(cfg, m, clients, test); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
}

func TestEmptyClientRejected(t *testing.T) {
	clients, test, m := scenario(t, 4)
	clients[2] = &dataset.Dataset{NumClasses: clients[0].NumClasses}
	if _, err := TrainRun(DefaultConfig(2, 2), m, clients, test); err == nil {
		t.Fatal("expected error for empty client")
	}
}

func TestNoClientsRejected(t *testing.T) {
	_, test, m := scenario(t, 2)
	if _, err := TrainRun(DefaultConfig(2, 1), m, nil, test); err == nil {
		t.Fatal("expected error for no clients")
	}
}
