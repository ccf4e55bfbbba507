package persist

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
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
	requireSameRun(t, loaded, run)
	// Rows share their block, so appending to one must not overwrite the next.
	for _, rows := range [][][]float64{loaded.Test.X, loaded.Rounds[0].Locals} {
		for i, row := range rows {
			if cap(row) != len(row) {
				t.Fatalf("row %d of a block has capacity %d beyond its %d values", i, cap(row), len(row))
			}
		}
	}
	// Valuations on the loaded run match the original exactly.
	a, err := shapley.FedSVCtx(context.Background(), utility.NewEvaluator(run), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shapley.FedSVCtx(context.Background(), utility.NewEvaluator(loaded), 1)
	if err != nil {
		t.Fatal(err)
	}
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
		requireSameRun(t, loaded, run)
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
	run := makeRun(t)
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	v1 := string(pinnedTrace(t, "logreg"))
	cases := []struct{ name, trace string }{
		{"not json", "garbage"},
		{"wrong version", strings.Replace(good, `"version":2`, `"version":9`, 1)},
		{"wrong v1 version", strings.Replace(v1, `"version":1`, `"version":9`, 1)},
		{"blocks under version 1", strings.Replace(good, `"version":2`, `"version":1`, 1)},
		{"number arrays under version 2", strings.Replace(v1, `"version":1`, `"version":2`, 1)},
		{"trailing object", good + "{}"},
		{"trailing v1 bytes", v1 + "x"},
		{"invalid base64", strings.Replace(good, `"x":"`, `"x":"!`, 1)},
		{"escaped block", strings.Replace(good, `"x":"`, `"x":"\u0041`, 1)},
		{"v1 repeated selection", strings.Replace(v1, `"selected":[3,1]`, `"selected":[3,3]`, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.trace == good || tc.trace == v1 {
				t.Fatal("mutation did not apply")
			}
			if _, err := LoadRun(strings.NewReader(tc.trace)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	if _, err := LoadRun(strings.NewReader(good + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
}

// editTrace saves the run, applies edit to the trace decoded as generic
// JSON and returns the re-encoded trace.
func editTrace(t *testing.T, run *fl.Run, edit func(t *testing.T, trace map[string]any)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	var trace map[string]any
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	edit(t, trace)
	b, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// round returns round t of a trace decoded as generic JSON.
func round(trace map[string]any, t int) map[string]any {
	return trace["rounds"].([]any)[t].(map[string]any)
}

// editBlock replaces the block under key in obj with edit applied to its
// bytes.
func editBlock(t *testing.T, obj map[string]any, key string, edit func([]byte) []byte) {
	t.Helper()
	raw, err := base64.StdEncoding.DecodeString(obj[key].(string))
	if err != nil {
		t.Fatal(err)
	}
	obj[key] = base64.StdEncoding.EncodeToString(edit(raw))
}

func TestLoadValidatesShapes(t *testing.T) {
	run := makeRun(t)
	// Truncate a local parameter vector: saving must fail.
	saved := run.Rounds[1].Locals[0]
	run.Rounds[1].Locals[0] = saved[:3]
	if err := SaveRun(io.Discard, run); err == nil {
		t.Fatal("SaveRun wrote a ragged locals tensor")
	}
	run.Rounds[1].Locals[0] = saved

	// A hand-built trace whose locals block is one float short: loading
	// must fail.
	short := editTrace(t, run, func(t *testing.T, trace map[string]any) {
		editBlock(t, round(trace, 1), "locals", func(b []byte) []byte { return b[:len(b)-8] })
	})
	if _, err := LoadRun(bytes.NewReader(short)); err == nil {
		t.Fatal("expected parameter-length validation error")
	}
}

func TestSaveRejectsUnloadableRuns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(run *fl.Run)
	}{
		{"ragged x", func(run *fl.Run) { run.Clients[1].X[2] = run.Clients[1].X[2][:4] }},
		{"x rows without labels", func(run *fl.Run) { run.Test.Y = run.Test.Y[1:] }},
		{"short global", func(run *fl.Run) { run.Rounds[0].Global = run.Rounds[0].Global[1:] }},
		{"missing local", func(run *fl.Run) { run.Rounds[2].Locals = run.Rounds[2].Locals[1:] }},
		{"short final", func(run *fl.Run) { run.Final = run.Final[:0] }},
		{"NaN local", func(run *fl.Run) { run.Rounds[1].Locals[2][5] = math.NaN() }},
		{"infinite feature", func(run *fl.Run) { run.Test.X[0][1] = math.Inf(-1) }},
		{"infinite final", func(run *fl.Run) { run.Final[0] = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := makeRun(t)
			tc.mut(run)
			if err := SaveRun(io.Discard, run); err == nil {
				t.Fatal("SaveRun accepted a run LoadRun cannot read back")
			}
		})
	}
}

func TestLoadValidatesBlocks(t *testing.T) {
	run := makeRun(t)
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	edits := map[string]func(t *testing.T, trace map[string]any){
		"x one float long": func(t *testing.T, trace map[string]any) {
			editBlock(t, trace["test"].(map[string]any), "x", func(b []byte) []byte { return append(b, make([]byte, 8)...) })
		},
		"global a partial float": func(t *testing.T, trace map[string]any) {
			editBlock(t, round(trace, 0), "global", func(b []byte) []byte { return b[:len(b)-3] })
		},
		"NaN in final": func(t *testing.T, trace map[string]any) {
			editBlock(t, trace, "final", func(b []byte) []byte { return append(b[:len(b)-8], nan...) })
		},
		"nonzero padding bits": func(t *testing.T, trace map[string]any) {
			// The block's last quantum carries two bytes, so its third
			// character's low two bits are padding.
			g := round(trace, 0)["global"].(string)
			if !strings.HasSuffix(g, "=") || strings.HasSuffix(g, "==") {
				t.Fatalf("global block %q does not end in one pad", g[len(g)-4:])
			}
			const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
			c := alphabet[strings.IndexByte(alphabet, g[len(g)-2])|1]
			round(trace, 0)["global"] = g[:len(g)-2] + string(c) + "="
		},
		"padding inside a block": func(t *testing.T, trace map[string]any) {
			locals := round(trace, 0)["locals"].(string)
			raw, err := base64.StdEncoding.DecodeString(locals)
			if err != nil {
				t.Fatal(err)
			}
			round(trace, 0)["locals"] = base64.StdEncoding.EncodeToString(raw[:1535]) + base64.StdEncoding.EncodeToString(raw[1535:])
		},
		"number array in a block field": func(_ *testing.T, trace map[string]any) {
			final := make([]any, len(run.Final))
			for i := range final {
				final[i] = 0.0
			}
			trace["final"] = final
		},
		"repeated selection": func(_ *testing.T, trace map[string]any) { round(trace, 1)["selected"] = []any{1, 1} },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadRun(bytes.NewReader(editTrace(t, run, edit))); err == nil {
				t.Fatal("LoadRun accepted a malformed block")
			}
		})
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
	var loaded Report
	if err := json.Unmarshal(buf.Bytes(), &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Version != reportVersion || len(loaded.Methods) != 2 || loaded.Methods["fedsv"][1] != 2 {
		t.Fatalf("report round-trip lost data: %+v", loaded)
	}
}
