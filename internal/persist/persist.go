// Package persist serializes federated training runs and valuation reports
// to JSON, so that valuation can run offline from a recorded trace: a
// server records the run once (cmd/fedsim -save) and analysts recompute
// FedSV / ComFedSV / baselines later without retraining
// (cmd/datavalue -run).
//
// A trace is one JSON object. Labels, selections, scalars and the model
// spec are plain JSON. Since format version 2 every float tensor is one
// JSON string of standard base64 over its little-endian IEEE-754 bytes: a
// dataset's x as one rows×dim block, a round's locals as one
// clients×params block, each round's global model and the final model.
// Blocks round-trip every float bit for bit and decode several times
// faster than decimal numbers. LoadRun still reads version-1 traces, which
// wrote the same object with every tensor as nested number arrays.
package persist

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
)

const (
	// FormatVersion identifies the trace schema SaveRun writes; bumped on
	// breaking changes.
	FormatVersion = 2
	// formatV1 is the schema with tensors as number arrays, which LoadRun
	// still reads.
	formatV1 = 1
	// reportVersion identifies the valuation report schema.
	reportVersion = 1
)

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

// blockEncoding is the base64 alphabet of a block. Strict decoding admits
// one spelling per float sequence.
var blockEncoding = base64.StdEncoding.Strict()

// blockFloats is how many floats a block encodes or decodes per step:
// 1536 bytes, a multiple of 3, so every full step is 2048 base64
// characters without padding.
const blockFloats = 192

// encodeBlock returns the JSON string holding the rows' values, in order,
// as base64 over their little-endian bytes. It rejects a non-finite value,
// which no JSON number could carry either.
func encodeBlock(rows ...[]float64) ([]byte, error) {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	out := make([]byte, 0, blockEncoding.EncodedLen(8*n)+2)
	out = append(out, '"')
	var buf [8 * blockFloats]byte
	k := 0
	for _, r := range rows {
		for _, x := range r {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("persist: non-finite value %v", x)
			}
			binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(x))
			if k++; k == blockFloats {
				out = blockEncoding.AppendEncode(out, buf[:])
				k = 0
			}
		}
	}
	out = blockEncoding.AppendEncode(out, buf[:8*k])
	return append(out, '"'), nil
}

// decodeBlock reads the floats of a block's JSON string, quotes included.
// A block is plain base64 without escapes, holds whole float64s, and every
// one of them is finite.
func decodeBlock(b []byte) ([]float64, error) {
	s := b[1 : len(b)-1]
	out := make([]float64, 0, blockEncoding.DecodedLen(len(s))/8)
	var buf [8 * blockFloats]byte
	for at := 0; len(s) > 0; at += blockEncoding.EncodedLen(len(buf)) {
		step := min(len(s), blockEncoding.EncodedLen(len(buf)))
		n, err := blockEncoding.Decode(buf[:], s[:step])
		if err != nil {
			var bad base64.CorruptInputError
			if errors.As(err, &bad) {
				err = bad + base64.CorruptInputError(at) // offset within the block
			}
			return nil, fmt.Errorf("persist: block: %w", err)
		}
		// A step padded before the block's end decodes 1534 or 1535
		// bytes, which this rejects too.
		if n%8 != 0 {
			return nil, fmt.Errorf("persist: block is not whole floats")
		}
		for i := 0; i < n; i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(buf[i:]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("persist: block holds non-finite value %v", x)
			}
			out = append(out, x)
		}
		s = s[step:]
	}
	return out, nil
}

func isBlock(b []byte) bool { return len(b) > 0 && b[0] == '"' }

// vector is a float vector of a trace, written as a block. LoadRun also
// reads the number array of a version-1 trace.
type vector struct {
	data  []float64
	block bool // read from a block
}

func (v vector) MarshalJSON() ([]byte, error) { return encodeBlock(v.data) }

func (v *vector) UnmarshalJSON(b []byte) (err error) {
	if v.block = isBlock(b); v.block {
		v.data, err = decodeBlock(b)
		return err
	}
	return json.Unmarshal(b, &v.data)
}

// values returns the vector's n values, which must be encoded as the
// trace's version says.
func (v vector) values(n int, blocks bool) ([]float64, error) {
	if err := checkEncoding(v.block, blocks); err != nil {
		return nil, err
	}
	if len(v.data) != n {
		return nil, fmt.Errorf("%d values, want %d", len(v.data), n)
	}
	return v.data, nil
}

// matrix is a float matrix of a trace, written as one row-major block.
// LoadRun also reads the array of row arrays of a version-1 trace.
type matrix struct {
	vector             // the values of a block read
	rows   [][]float64 // rows to write, or as read from a version-1 trace
}

func (m matrix) MarshalJSON() ([]byte, error) { return encodeBlock(m.rows...) }

func (m *matrix) UnmarshalJSON(b []byte) error {
	*m = matrix{} // a repeated key replaces, as for other fields
	if isBlock(b) {
		return m.vector.UnmarshalJSON(b)
	}
	return json.Unmarshal(b, &m.rows)
}

// shape returns the matrix's r rows of c ≥ 1 values, which must be encoded
// as the trace's version says. The rows of a block are cap-clipped
// subslices of it.
func (m matrix) shape(r, c int, blocks bool) ([][]float64, error) {
	if err := checkEncoding(m.block, blocks); err != nil {
		return nil, err
	}
	if !m.block {
		return m.rows, checkShape(m.rows, r, c)
	}
	if len(m.data)%c != 0 || len(m.data)/c != r {
		return nil, fmt.Errorf("block of %d values, want %d×%d", len(m.data), r, c)
	}
	rows := make([][]float64, r)
	for i := range rows {
		rows[i] = m.data[i*c : (i+1)*c : (i+1)*c]
	}
	return rows, nil
}

// checkShape reports whether rows is an r×c matrix.
func checkShape(rows [][]float64, r, c int) error {
	if len(rows) != r {
		return fmt.Errorf("%d rows, want %d", len(rows), r)
	}
	for i, row := range rows {
		if len(row) != c {
			return fmt.Errorf("row %d has %d values, want %d", i, len(row), c)
		}
	}
	return nil
}

// checkEncoding requires blocks in a current trace and number arrays in a
// version-1 one.
func checkEncoding(block, blocks bool) error {
	if block != blocks {
		if block {
			return fmt.Errorf("block in a version %d trace", formatV1)
		}
		return fmt.Errorf("number array in a version %d trace", FormatVersion)
	}
	return nil
}

// datasetFile is the JSON form of a dataset.
type datasetFile struct {
	X          matrix              `json:"x"`
	Y          []int               `json:"y"`
	NumClasses int                 `json:"num_classes"`
	Shape      *dataset.ImageShape `json:"shape,omitempty"`
}

// toDatasetFile checks that the dataset's rows are as many and as wide as
// the labels and the model input say, so its block reads back aligned.
func toDatasetFile(d *dataset.Dataset, spec ModelSpec) (datasetFile, error) {
	if err := checkShape(d.X, len(d.Y), spec.inputDim()); err != nil {
		return datasetFile{}, fmt.Errorf("x: %w", err)
	}
	return datasetFile{X: matrix{rows: d.X}, Y: d.Y, NumClasses: d.NumClasses, Shape: d.Shape}, nil
}

// toDataset validates the dataset on its own and against the model that
// evaluates it: one row per label, rows as wide as the model's input,
// labels among its classes.
func (f datasetFile) toDataset(spec ModelSpec, blocks bool) (*dataset.Dataset, error) {
	x, err := f.X.shape(len(f.Y), spec.inputDim(), blocks)
	if err != nil {
		return nil, fmt.Errorf("persist: x: %w", err)
	}
	d := &dataset.Dataset{X: x, Y: f.Y, NumClasses: f.NumClasses, Shape: f.Shape}
	if d.X == nil {
		d.X = [][]float64{}
	}
	if d.Y == nil {
		d.Y = []int{}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid dataset: %w", err)
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
	Global       vector  `json:"global"`
	Locals       matrix  `json:"locals"`
	Selected     []int   `json:"selected"`
	TestLoss     float64 `json:"test_loss"`
	LearningRate float64 `json:"learning_rate"`
}

// runFile is the JSON schema of a full training trace.
type runFile struct {
	Version int           `json:"version"`
	Model   ModelSpec     `json:"model"`
	Test    datasetFile   `json:"test"`
	Clients []datasetFile `json:"clients"`
	Rounds  []roundFile   `json:"rounds"`
	Final   vector        `json:"final"`
}

// SaveRun writes the run as a version-2 JSON trace. It returns an error,
// and writes nothing, for a tensor whose shape disagrees with the model
// and the datasets or that holds a non-finite value.
func SaveRun(w io.Writer, run *fl.Run) error {
	spec, err := SpecFor(run.Model)
	if err != nil {
		return err
	}
	p, n := run.Model.NumParams(), len(run.Clients)
	if len(run.Final) != p {
		return fmt.Errorf("persist: final model has %d params, want %d", len(run.Final), p)
	}
	f := runFile{Version: FormatVersion, Model: spec, Final: vector{data: run.Final}}
	if f.Test, err = toDatasetFile(run.Test, spec); err != nil {
		return fmt.Errorf("persist: test set: %w", err)
	}
	for i, c := range run.Clients {
		cf, err := toDatasetFile(c, spec)
		if err != nil {
			return fmt.Errorf("persist: client %d: %w", i, err)
		}
		f.Clients = append(f.Clients, cf)
	}
	for t, rd := range run.Rounds {
		if len(rd.Global) != p {
			return fmt.Errorf("persist: round %d global has %d params, want %d", t, len(rd.Global), p)
		}
		if err := checkShape(rd.Locals, n, p); err != nil {
			return fmt.Errorf("persist: round %d locals: %w", t, err)
		}
		f.Rounds = append(f.Rounds, roundFile{
			Global:       vector{data: rd.Global},
			Locals:       matrix{rows: rd.Locals},
			Selected:     rd.Selected,
			TestLoss:     rd.TestLoss,
			LearningRate: rd.LearningRate,
		})
	}
	if err := json.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("persist: encoding run: %w", err)
	}
	return nil
}

// LoadRun reads a run written by SaveRun, of either format version, and
// validates its internal consistency (model sizes, tensor shapes,
// selection indices, dataset widths and labels), so every utility of the
// loaded run evaluates. Only whitespace may follow the run object.
func LoadRun(r io.Reader) (*fl.Run, error) {
	data, err := readWhole(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading run: %w", err)
	}
	return decodeRun(data)
}

// readWhole reads r to its end into one buffer, sized up front when r
// knows its length (a file, or an in-memory reader).
func readWhole(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if info, err := v.Stat(); err == nil {
			size = int(info.Size())
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeRun is LoadRun over the whole trace in memory: one json.Unmarshal
// decodes it without a streaming decoder's buffer copies, and rejects
// anything but whitespace after the object.
func decodeRun(data []byte) (*fl.Run, error) {
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("persist: decoding run: %w", err)
	}
	if f.Version != FormatVersion && f.Version != formatV1 {
		return nil, fmt.Errorf("persist: unsupported format version %d (want %d or %d)", f.Version, formatV1, FormatVersion)
	}
	blocks := f.Version == FormatVersion
	m, err := f.Model.Build()
	if err != nil {
		return nil, err
	}
	test, err := f.Test.toDataset(f.Model, blocks)
	if err != nil {
		return nil, fmt.Errorf("persist: test set: %w", err)
	}
	p := m.NumParams()
	final, err := f.Final.values(p, blocks)
	if err != nil {
		return nil, fmt.Errorf("persist: final model: %w", err)
	}
	run := &fl.Run{Model: m, Test: test, Final: final}
	for i, cf := range f.Clients {
		c, err := cf.toDataset(f.Model, blocks)
		if err != nil {
			return nil, fmt.Errorf("persist: client %d: %w", i, err)
		}
		run.Clients = append(run.Clients, c)
	}
	n := len(run.Clients)
	selectedIn := make([]int, n) // round+1 of a client's last selection
	for t, rf := range f.Rounds {
		global, err := rf.Global.values(p, blocks)
		if err != nil {
			return nil, fmt.Errorf("persist: round %d global: %w", t, err)
		}
		locals, err := rf.Locals.shape(n, p, blocks)
		if err != nil {
			return nil, fmt.Errorf("persist: round %d locals: %w", t, err)
		}
		for _, s := range rf.Selected {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("persist: round %d selects client %d of %d", t, s, n)
			}
			if selectedIn[s] == t+1 {
				return nil, fmt.Errorf("persist: round %d selects client %d twice", t, s)
			}
			selectedIn[s] = t + 1
		}
		run.Rounds = append(run.Rounds, fl.Round{
			Global:       global,
			Locals:       locals,
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
	rep.Version = reportVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
