package persist

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

func makeRun(t *testing.T) *fl.Run {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(401), 150)
	g := rng.New(402)
	train, test := dataset.TrainTestSplit(full, 40.0/150, g)
	parts := dataset.PartitionIID(train, 4, g)
	m := model.NewMLP(full.Dim(), 5, full.NumClasses)
	cfg := fl.DefaultConfig(3, 2)
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunRoundTrip(t *testing.T) {
	run := makeRun(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClients() != run.NumClients() {
		t.Fatalf("clients %d, want %d", loaded.NumClients(), run.NumClients())
	}
	if len(loaded.Rounds) != len(run.Rounds) {
		t.Fatalf("rounds %d, want %d", len(loaded.Rounds), len(run.Rounds))
	}
	// Valuations on the loaded run match the original exactly.
	a := shapley.FedSV(utility.NewEvaluator(run))
	b := shapley.FedSV(utility.NewEvaluator(loaded))
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("FedSV after round-trip differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunRoundTripAllModels(t *testing.T) {
	shapes := dataset.ImageShape{Height: 8, Width: 8, Channels: 1}
	models := []model.Model{
		model.NewLogisticRegression(64, 10),
		model.NewMLP(64, 5, 10),
		model.NewCNN(shapes, 2, 10),
	}
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(403), 120)
	g := rng.New(404)
	train, test := dataset.TrainTestSplit(full, 40.0/120, g)
	parts := dataset.PartitionIID(train, 3, g)
	for _, m := range models {
		cfg := fl.DefaultConfig(2, 2)
		run, err := fl.TrainRun(cfg, m, parts, test)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveRun(&buf, run); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		loaded, err := LoadRun(&buf)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if loaded.Model.NumParams() != m.NumParams() {
			t.Fatalf("%T: params %d, want %d", m, loaded.Model.NumParams(), m.NumParams())
		}
	}
}

func TestSpecForUnknownModel(t *testing.T) {
	if _, err := SpecFor(fakeModel{}); err == nil {
		t.Fatal("expected error for unknown model type")
	}
}

type fakeModel struct{}

func (fakeModel) NumParams() int                                 { return 0 }
func (fakeModel) InitParams(*rng.RNG) []float64                  { return nil }
func (fakeModel) Loss([]float64, *dataset.Dataset) float64       { return 0 }
func (fakeModel) Gradient([]float64, *dataset.Dataset) []float64 { return nil }
func (fakeModel) Predict(params []float64, x []float64) int      { return 0 }

func TestBuildUnknownKind(t *testing.T) {
	if _, err := (ModelSpec{Kind: "nope"}).Build(); err == nil {
		t.Fatal("expected error")
	}
	if _, err := (ModelSpec{Kind: "cnn"}).Build(); err == nil {
		t.Fatal("cnn without shape must fail")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name string
		mut  func(string) string
	}{
		{"not json", func(s string) string { return "garbage" }},
		{"wrong version", func(s string) string { return strings.Replace(s, `"version":1`, `"version":9`, 1) }},
	}
	run := makeRun(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadRun(strings.NewReader(tc.mut(good))); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestLoadValidatesShapes(t *testing.T) {
	run := makeRun(t)
	// Truncate a local parameter vector: loading must fail.
	run.Rounds[1].Locals[0] = run.Rounds[1].Locals[0][:3]
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(&buf); err == nil {
		t.Fatal("expected parameter-length validation error")
	}
}

func TestLoadValidatesSelection(t *testing.T) {
	run := makeRun(t)
	run.Rounds[0].Selected = []int{99}
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRun(&buf); err == nil {
		t.Fatal("expected selection-index validation error")
	}
}

// TestLoadRejectsUnevaluableTraces pins the model-versus-data checks:
// each trace is internally consistent in its lengths, yet building its
// model or evaluating a utility on it would panic (or, for a negative
// dim, read no features at all), so LoadRun must refuse it.
func TestLoadRejectsUnevaluableTraces(t *testing.T) {
	cases := []struct{ name, trace string }{
		{"cnn image too small", `{"version":1,"model":{"kind":"cnn","filters":1,"classes":2,"shape":{"Height":2,"Width":2,"Channels":1}},"test":{"x":[[0,0,0,0]],"y":[0],"num_classes":2},"clients":[{"x":[[0,0,0,0]],"y":[1],"num_classes":2}],"rounds":[{"global":[0],"locals":[[0]],"selected":[0]}],"final":[0]}`},
		{"logreg dim below data", `{"version":1,"model":{"kind":"logreg","dim":1,"classes":2},"test":{"x":[[0,1,2]],"y":[0],"num_classes":2},"clients":[{"x":[[1,2,3]],"y":[1],"num_classes":2}],"rounds":[{"global":[0,0,0,0],"locals":[[0,0,0,0]],"selected":[0]}],"final":[0,0,0,0]}`},
		{"labels beyond model classes", `{"version":1,"model":{"kind":"logreg","dim":2,"classes":2},"test":{"x":[[0,1],[1,0]],"y":[5,7],"num_classes":10},"clients":[{"x":[[0,1]],"y":[0],"num_classes":10}],"rounds":[{"global":[0,0,0,0,0,0],"locals":[[0,0,0,0,0,0]],"selected":[0]}],"final":[0,0,0,0,0,0]}`},
		{"negative dim", `{"version":1,"model":{"kind":"logreg","dim":-1,"classes":2},"test":{"x":[],"y":[],"num_classes":2},"clients":[{"x":[],"y":[],"num_classes":2}],"rounds":[{"global":[],"locals":[[]],"selected":[0]}],"final":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadRun(strings.NewReader(tc.trace)); err == nil {
				t.Fatal("LoadRun accepted a trace it cannot evaluate")
			}
		})
	}
}

// FuzzLoadRun feeds arbitrary bytes to the saved-trace decoder, which
// workers and recovering daemons read from disk. It must not panic, and
// every trace it accepts must save and load back to the same bytes and
// evaluate the round-0 utility of its selected clients.
func FuzzLoadRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := LoadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveRun(&first, run); err != nil {
			t.Fatalf("loaded run does not save: %v", err)
		}
		again, err := LoadRun(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved run does not load back: %v", err)
		}
		if err := SaveRun(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the run:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		sel := utility.FromMembers(run.NumClients(), run.Rounds[0].Selected)
		utility.NewEvaluator(run).Utility(0, sel)
	})
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{Methods: map[string][]float64{
		"fedsv":    {1, 2, 3},
		"comfedsv": {1.1, 2.2, 2.9},
	}}
	var buf bytes.Buffer
	if err := SaveReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Methods) != 2 || loaded.Methods["fedsv"][1] != 2 {
		t.Fatalf("report round-trip lost data: %+v", loaded)
	}
}

func TestLoadReportRejectsGarbage(t *testing.T) {
	if _, err := LoadReport(strings.NewReader("{")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := LoadReport(strings.NewReader(`{"version":3}`)); err == nil {
		t.Fatal("expected version error")
	}
}
