// Package persist serializes federated training runs and valuation reports
// to JSON, so that valuation can run offline from a recorded trace: a
// server records the run once (cmd/fedsim -save) and analysts recompute
// FedSV / ComFedSV / baselines later without retraining
// (cmd/datavalue -run).
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
)

// FormatVersion identifies the on-disk schema; bumped on breaking changes.
const FormatVersion = 1

// ModelSpec describes how to reconstruct a model.Model.
type ModelSpec struct {
	Kind    string              `json:"kind"` // "logreg", "mlp", or "cnn"
	Dim     int                 `json:"dim,omitempty"`
	Hidden  int                 `json:"hidden,omitempty"`
	Classes int                 `json:"classes"`
	Filters int                 `json:"filters,omitempty"`
	Shape   *dataset.ImageShape `json:"shape,omitempty"`
}

// SpecFor derives the spec of a known model type. It returns an error for
// model implementations this package cannot round-trip.
func SpecFor(m model.Model) (ModelSpec, error) {
	switch mm := m.(type) {
	case *model.LogisticRegression:
		return ModelSpec{Kind: "logreg", Dim: mm.Dim, Classes: mm.Classes}, nil
	case *model.MLP:
		return ModelSpec{Kind: "mlp", Dim: mm.Dim, Hidden: mm.Hidden, Classes: mm.Classes}, nil
	case *model.CNN:
		shape := mm.Shape
		return ModelSpec{Kind: "cnn", Filters: mm.Filters, Classes: mm.Classes, Shape: &shape}, nil
	default:
		return ModelSpec{}, fmt.Errorf("persist: unsupported model type %T", m)
	}
}

// maxSpecSize bounds every size in a ModelSpec, so a spec read from
// untrusted bytes cannot overflow the parameter-count arithmetic.
const maxSpecSize = 1 << 16

// Build reconstructs the model described by the spec. It rejects sizes
// outside [1, maxSpecSize] and CNN images too small for a 3×3 valid
// convolution followed by 2×2 pooling.
func (s ModelSpec) Build() (model.Model, error) {
	sizes := []int{s.Classes}
	switch s.Kind {
	case "logreg":
		sizes = append(sizes, s.Dim)
	case "mlp":
		sizes = append(sizes, s.Dim, s.Hidden)
	case "cnn":
		if s.Shape == nil {
			return nil, fmt.Errorf("persist: cnn spec without shape")
		}
		if s.Shape.Height < 4 || s.Shape.Width < 4 {
			return nil, fmt.Errorf("persist: cnn image %dx%d too small", s.Shape.Height, s.Shape.Width)
		}
		sizes = append(sizes, s.Filters, s.Shape.Height, s.Shape.Width, s.Shape.Channels)
	default:
		return nil, fmt.Errorf("persist: unknown model kind %q", s.Kind)
	}
	for _, n := range sizes {
		if n < 1 || n > maxSpecSize {
			return nil, fmt.Errorf("persist: %s spec size %d out of range [1,%d]", s.Kind, n, maxSpecSize)
		}
	}
	switch s.Kind {
	case "logreg":
		return model.NewLogisticRegression(s.Dim, s.Classes), nil
	case "mlp":
		return model.NewMLP(s.Dim, s.Hidden, s.Classes), nil
	default:
		return model.NewCNN(*s.Shape, s.Filters, s.Classes), nil
	}
}

// inputDim is the feature width the spec's model reads.
func (s ModelSpec) inputDim() int {
	if s.Kind == "cnn" {
		return s.Shape.Size()
	}
	return s.Dim
}

// datasetFile is the JSON form of a dataset.
type datasetFile struct {
	X          [][]float64         `json:"x"`
	Y          []int               `json:"y"`
	NumClasses int                 `json:"num_classes"`
	Shape      *dataset.ImageShape `json:"shape,omitempty"`
}

func toDatasetFile(d *dataset.Dataset) datasetFile {
	return datasetFile{X: d.X, Y: d.Y, NumClasses: d.NumClasses, Shape: d.Shape}
}

// toDataset validates the dataset on its own and against the model that
// evaluates it: rows as wide as the model's input, labels among its classes.
func (f datasetFile) toDataset(spec ModelSpec) (*dataset.Dataset, error) {
	d := &dataset.Dataset{X: f.X, Y: f.Y, NumClasses: f.NumClasses, Shape: f.Shape}
	if d.X == nil {
		d.X = [][]float64{}
	}
	if d.Y == nil {
		d.Y = []int{}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid dataset: %w", err)
	}
	if d.Len() > 0 && d.Dim() != spec.inputDim() {
		return nil, fmt.Errorf("persist: dataset dim %d, model reads %d", d.Dim(), spec.inputDim())
	}
	for i, y := range d.Y {
		if y >= spec.Classes {
			return nil, fmt.Errorf("persist: label %d at row %d, model has %d classes", y, i, spec.Classes)
		}
	}
	return d, nil
}

// roundFile is the JSON form of one recorded round.
type roundFile struct {
	Global       []float64   `json:"global"`
	Locals       [][]float64 `json:"locals"`
	Selected     []int       `json:"selected"`
	TestLoss     float64     `json:"test_loss"`
	LearningRate float64     `json:"learning_rate"`
}

// runFile is the JSON schema of a full training trace.
type runFile struct {
	Version int           `json:"version"`
	Model   ModelSpec     `json:"model"`
	Test    datasetFile   `json:"test"`
	Clients []datasetFile `json:"clients"`
	Rounds  []roundFile   `json:"rounds"`
	Final   []float64     `json:"final"`
}

// SaveRun writes the run as JSON.
func SaveRun(w io.Writer, run *fl.Run) error {
	spec, err := SpecFor(run.Model)
	if err != nil {
		return err
	}
	f := runFile{
		Version: FormatVersion,
		Model:   spec,
		Test:    toDatasetFile(run.Test),
		Final:   run.Final,
	}
	for _, c := range run.Clients {
		f.Clients = append(f.Clients, toDatasetFile(c))
	}
	for _, rd := range run.Rounds {
		f.Rounds = append(f.Rounds, roundFile{
			Global:       rd.Global,
			Locals:       rd.Locals,
			Selected:     rd.Selected,
			TestLoss:     rd.TestLoss,
			LearningRate: rd.LearningRate,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// LoadRun reads a run previously written by SaveRun and validates its
// internal consistency (model sizes, parameter lengths, selection indices,
// dataset widths and labels), so every utility of the loaded run evaluates.
func LoadRun(r io.Reader) (*fl.Run, error) {
	var f runFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("persist: decoding run: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported format version %d (want %d)", f.Version, FormatVersion)
	}
	m, err := f.Model.Build()
	if err != nil {
		return nil, err
	}
	test, err := f.Test.toDataset(f.Model)
	if err != nil {
		return nil, fmt.Errorf("persist: test set: %w", err)
	}
	run := &fl.Run{Model: m, Test: test, Final: f.Final}
	for i, cf := range f.Clients {
		c, err := cf.toDataset(f.Model)
		if err != nil {
			return nil, fmt.Errorf("persist: client %d: %w", i, err)
		}
		run.Clients = append(run.Clients, c)
	}
	n := len(run.Clients)
	p := m.NumParams()
	if len(f.Final) != p {
		return nil, fmt.Errorf("persist: final model has %d params, model wants %d", len(f.Final), p)
	}
	for t, rf := range f.Rounds {
		if len(rf.Global) != p {
			return nil, fmt.Errorf("persist: round %d global has %d params, want %d", t, len(rf.Global), p)
		}
		if len(rf.Locals) != n {
			return nil, fmt.Errorf("persist: round %d has %d locals, want %d", t, len(rf.Locals), n)
		}
		for i, l := range rf.Locals {
			if len(l) != p {
				return nil, fmt.Errorf("persist: round %d client %d has %d params, want %d", t, i, len(l), p)
			}
		}
		for _, s := range rf.Selected {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("persist: round %d selects client %d of %d", t, s, n)
			}
		}
		run.Rounds = append(run.Rounds, fl.Round{
			Global:       rf.Global,
			Locals:       rf.Locals,
			Selected:     rf.Selected,
			TestLoss:     rf.TestLoss,
			LearningRate: rf.LearningRate,
		})
	}
	if len(run.Rounds) == 0 {
		return nil, fmt.Errorf("persist: run has no rounds")
	}
	return run, nil
}

// Report is the JSON form of a valuation report produced by cmd/datavalue.
type Report struct {
	Version int                  `json:"version"`
	Methods map[string][]float64 `json:"methods"`
}

// SaveReport writes a valuation report as JSON.
func SaveReport(w io.Writer, rep *Report) error {
	rep.Version = FormatVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// LoadReport reads a valuation report.
func LoadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("persist: decoding report: %w", err)
	}
	if rep.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported report version %d", rep.Version)
	}
	return &rep, nil
}
