package persist

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
)

// saveRunV1 writes a run as the version-1 writer did, every tensor as
// nested number arrays. It stands in for that writer in the pinned-trace
// test and the v1 benchmarks.
func saveRunV1(w io.Writer, run *fl.Run) error {
	type datasetV1 struct {
		X          [][]float64         `json:"x"`
		Y          []int               `json:"y"`
		NumClasses int                 `json:"num_classes"`
		Shape      *dataset.ImageShape `json:"shape,omitempty"`
	}
	type roundV1 struct {
		Global       []float64   `json:"global"`
		Locals       [][]float64 `json:"locals"`
		Selected     []int       `json:"selected"`
		TestLoss     float64     `json:"test_loss"`
		LearningRate float64     `json:"learning_rate"`
	}
	spec, err := SpecFor(run.Model)
	if err != nil {
		return err
	}
	ds := func(d *dataset.Dataset) datasetV1 {
		return datasetV1{X: d.X, Y: d.Y, NumClasses: d.NumClasses, Shape: d.Shape}
	}
	f := struct {
		Version int         `json:"version"`
		Model   ModelSpec   `json:"model"`
		Test    datasetV1   `json:"test"`
		Clients []datasetV1 `json:"clients"`
		Rounds  []roundV1   `json:"rounds"`
		Final   []float64   `json:"final"`
	}{Version: formatV1, Model: spec, Test: ds(run.Test), Final: run.Final}
	for _, c := range run.Clients {
		f.Clients = append(f.Clients, ds(c))
	}
	for _, rd := range run.Rounds {
		f.Rounds = append(f.Rounds, roundV1{rd.Global, rd.Locals, rd.Selected, rd.TestLoss, rd.LearningRate})
	}
	return json.NewEncoder(w).Encode(f)
}

// pinnedTrace returns the bytes of a committed version-1 trace.
func pinnedTrace(t testing.TB, kind string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "trace-v1-"+kind+".run.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSameRun fails unless the runs agree in their model spec, every
// float (compared by bits), label, selection and round scalar.
func requireSameRun(t *testing.T, got, want *fl.Run) {
	t.Helper()
	gs, err := SpecFor(got.Model)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := SpecFor(want.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("spec %+v, want %+v", gs, ws)
	}
	sameFloats := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, a[i], b[i])
			}
		}
	}
	sameRows := func(what string, a, b [][]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows, want %d", what, len(a), len(b))
		}
		for i := range a {
			sameFloats(what, a[i], b[i])
		}
	}
	sameData := func(what string, a, b *dataset.Dataset) {
		t.Helper()
		sameRows(what+" x", a.X, b.X)
		if !reflect.DeepEqual(a.Y, b.Y) || a.NumClasses != b.NumClasses || !reflect.DeepEqual(a.Shape, b.Shape) {
			t.Fatalf("%s labels, classes or shape differ", what)
		}
	}
	sameData("test", got.Test, want.Test)
	if len(got.Clients) != len(want.Clients) {
		t.Fatalf("%d clients, want %d", len(got.Clients), len(want.Clients))
	}
	for i := range got.Clients {
		sameData("client", got.Clients[i], want.Clients[i])
	}
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	for i, g := range got.Rounds {
		w := want.Rounds[i]
		sameFloats("global", g.Global, w.Global)
		sameRows("locals", g.Locals, w.Locals)
		sameFloats("round scalars", []float64{g.TestLoss, g.LearningRate}, []float64{w.TestLoss, w.LearningRate})
		if !reflect.DeepEqual(g.Selected, w.Selected) {
			t.Fatalf("round %d selects %v, want %v", i, g.Selected, w.Selected)
		}
	}
	sameFloats("final", got.Final, want.Final)
}

// TestPinnedTraceFormat reads version-1 traces committed from the
// version-1 writer, requires that writing the loaded run the old way
// reproduces their bytes, and that a version-2 re-save loads back to the
// same run bit for bit.
func TestPinnedTraceFormat(t *testing.T) {
	pinned, err := NewRunStore("testdata")
	if err != nil {
		t.Fatal(err)
	}
	resaved := newCellStore(t)
	for _, kind := range []string{"logreg", "mlp"} {
		t.Run(kind, func(t *testing.T) {
			id := "trace-v1-" + kind
			v1, err := pinned.LoadRun(id)
			if err != nil {
				t.Fatal(err)
			}
			if spec, _ := SpecFor(v1.Model); spec.Kind != kind {
				t.Fatalf("pinned %s trace holds a %s model", kind, spec.Kind)
			}
			var old bytes.Buffer
			if err := saveRunV1(&old, v1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(old.Bytes(), pinnedTrace(t, kind)) {
				t.Fatal("the loaded v1 trace does not re-encode to its pinned bytes")
			}
			if err := resaved.SaveRun(id, v1); err != nil {
				t.Fatal(err)
			}
			v2, err := resaved.LoadRun(id)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, v2, v1)
		})
	}
}

// warmTrace is a run of the warm_mc benchmark workload's shape: 24
// clients of 40 examples with 20 features, a test set of 96, and 30 rounds
// of a 10-class logistic regression.
func warmTrace(tb testing.TB) *fl.Run {
	tb.Helper()
	cfg := dataset.DefaultSyntheticConfig(1, 1, 3)
	cfg.Dim = 20
	sizes := make([]int, 24)
	for i := range sizes {
		sizes[i] = 44
	}
	var clients, tests []*dataset.Dataset
	for _, d := range dataset.GenerateSynthetic(cfg, sizes) {
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = i
		}
		tests = append(tests, d.Subset(idx[:4]))
		clients = append(clients, d.Subset(idx[4:]))
	}
	run, err := fl.TrainRun(fl.DefaultConfig(30, 3), model.NewLogisticRegression(20, 10), clients, dataset.Concat(tests...))
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// traceWriters are the two trace encodings benchmarked side by side.
var traceWriters = []struct {
	name string
	save func(io.Writer, *fl.Run) error
}{{"v1", saveRunV1}, {"v2", SaveRun}}

func BenchmarkSaveRun(b *testing.B) {
	run := warmTrace(b)
	for _, w := range traceWriters {
		b.Run(w.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := w.save(&buf, run); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			for b.Loop() {
				buf.Reset()
				if err := w.save(&buf, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoadRun(b *testing.B) {
	run := warmTrace(b)
	for _, w := range traceWriters {
		b.Run(w.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := w.save(&buf, run); err != nil {
				b.Fatal(err)
			}
			trace := buf.Bytes()
			b.SetBytes(int64(len(trace)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := LoadRun(bytes.NewReader(trace)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
