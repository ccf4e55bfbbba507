// Package dataset provides the data substrate for the federated-learning
// experiments: the synthetic(α,β) generator of Li et al. (2018) used by the
// paper, synthetic image datasets standing in for MNIST / Fashion-MNIST /
// CIFAR-10 (the module has no external dependencies or data), IID and non-IID
// partitioners, and the data/label corruption used by the data-quality
// experiments (Figs. 6 and 7).
package dataset

import (
	"fmt"

	"comfedsv/internal/rng"
)

// Dataset is a labeled classification dataset with dense features.
type Dataset struct {
	// X[i] is the feature vector of example i.
	X [][]float64
	// Y[i] is the class label of example i, in [0, NumClasses).
	Y []int
	// NumClasses is the number of distinct classes.
	NumClasses int
	// Shape optionally records an image geometry (height, width, channels)
	// for convolutional models; Shape == nil means flat features.
	Shape *ImageShape
}

// ImageShape records the geometry of image-like features.
type ImageShape struct {
	Height, Width, Channels int
}

// Size returns the number of pixels per channel-plane times channels.
func (s ImageShape) Size() int { return s.Height * s.Width * s.Channels }

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks internal consistency and returns a descriptive error on
// the first violation found.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.NumClasses <= 0 {
		return fmt.Errorf("dataset: non-positive class count %d", d.NumClasses)
	}
	dim := d.Dim()
	for i, x := range d.X {
		if len(x) != dim {
			return fmt.Errorf("dataset: row %d has dim %d, want %d", i, len(x), dim)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("dataset: label %d at row %d out of range [0,%d)", y, i, d.NumClasses)
		}
	}
	if d.Shape != nil && d.Shape.Size() != dim {
		return fmt.Errorf("dataset: shape %+v size %d != dim %d", *d.Shape, d.Shape.Size(), dim)
	}
	return nil
}

// Clone returns a deep copy of d.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		X:          make([][]float64, len(d.X)),
		Y:          make([]int, len(d.Y)),
		NumClasses: d.NumClasses,
	}
	for i, x := range d.X {
		out.X[i] = append([]float64(nil), x...)
	}
	copy(out.Y, d.Y)
	if d.Shape != nil {
		s := *d.Shape
		out.Shape = &s
	}
	return out
}

// Subset returns a dataset view containing the rows in idx. Feature vectors
// are shared, not copied; corrupt a Clone if you need isolation.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		X:          make([][]float64, len(idx)),
		Y:          make([]int, len(idx)),
		NumClasses: d.NumClasses,
		Shape:      d.Shape,
	}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// Concat returns a new dataset holding all examples of the inputs in order.
// All inputs must agree on NumClasses and dimension.
func Concat(parts ...*Dataset) *Dataset {
	if len(parts) == 0 {
		panic("dataset: concat of nothing")
	}
	out := &Dataset{NumClasses: parts[0].NumClasses, Shape: parts[0].Shape}
	for _, p := range parts {
		if p.NumClasses != out.NumClasses {
			panic("dataset: concat class-count mismatch")
		}
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out
}

// Shuffle permutes the examples in place using g.
func (d *Dataset) Shuffle(g *rng.RNG) {
	for i := d.Len() - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}
