package model

import (
	"fmt"
	"math"

	"comfedsv/internal/dataset"
	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// MLP is a one-hidden-layer perceptron with tanh activation and a softmax
// cross-entropy head — the "simple fully connected neural network" the
// paper trains on MNIST. tanh keeps the loss smooth, matching the setting
// of the paper's low-rankness analysis more closely than ReLU.
//
// Parameter layout (flat): [W1 (Hidden×Dim) | b1 (Hidden) | W2 (Classes×Hidden) | b2 (Classes)].
type MLP struct {
	Dim     int
	Hidden  int
	Classes int
	L2      float64
}

// NewMLP returns an MLP with the default regularization.
func NewMLP(dim, hidden, classes int) *MLP {
	return &MLP{Dim: dim, Hidden: hidden, Classes: classes, L2: 1e-4}
}

// NumParams returns Hidden*(Dim+1) + Classes*(Hidden+1).
func (m *MLP) NumParams() int {
	return m.Hidden*(m.Dim+1) + m.Classes*(m.Hidden+1)
}

// InitParams uses Xavier-style scaling so tanh units start in their linear
// regime.
func (m *MLP) InitParams(g *rng.RNG) []float64 {
	p := make([]float64, m.NumParams())
	s1 := math.Sqrt(2.0 / float64(m.Dim+m.Hidden))
	s2 := math.Sqrt(2.0 / float64(m.Hidden+m.Classes))
	w1, _, w2, _ := m.slices(p)
	for i := range w1 {
		w1[i] = g.Normal(0, s1)
	}
	for i := range w2 {
		w2[i] = g.Normal(0, s2)
	}
	return p
}

// slices carves the flat parameter vector into the four blocks.
func (m *MLP) slices(p []float64) (w1, b1, w2, b2 []float64) {
	o := 0
	w1 = p[o : o+m.Hidden*m.Dim]
	o += m.Hidden * m.Dim
	b1 = p[o : o+m.Hidden]
	o += m.Hidden
	w2 = p[o : o+m.Classes*m.Hidden]
	o += m.Classes * m.Hidden
	b2 = p[o : o+m.Classes]
	return
}

// forward computes hidden activations and logits for one example.
func (m *MLP) forward(p, x, hidden, logits []float64) {
	w1, b1, w2, b2 := m.slices(p)
	mat.DotRows(hidden, w1, m.Dim, m.Dim, x)
	for h := range hidden {
		hidden[h] = math.Tanh(hidden[h] + b1[h])
	}
	mat.DotRows(logits, w2, m.Hidden, m.Hidden, hidden)
	for c := range logits {
		logits[c] += b2[c]
	}
}

// Loss returns mean cross-entropy over d plus (L2/2)‖params‖².
func (m *MLP) Loss(params []float64, d *dataset.Dataset) float64 {
	m.checkDims(params, d)
	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.Classes)
	probs := make([]float64, m.Classes)
	var total float64
	for i, x := range d.X {
		m.forward(params, x, hidden, logits)
		mat.Softmax(probs, logits)
		total += -math.Log(math.Max(probs[d.Y[i]], 1e-15))
	}
	n := float64(d.Len())
	if n == 0 {
		n = 1
	}
	return total/n + 0.5*m.L2*mat.Dot(params, params)
}

// Gradient returns the gradient of Loss at params via backpropagation.
func (m *MLP) Gradient(params []float64, d *dataset.Dataset) []float64 {
	m.checkDims(params, d)
	grad := make([]float64, m.NumParams())
	gw1, gb1, gw2, gb2 := m.slices(grad)
	w1, _, w2, _ := m.slices(params)
	_ = w1

	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.Classes)
	probs := make([]float64, m.Classes)
	dHidden := make([]float64, m.Hidden)
	for i, x := range d.X {
		m.forward(params, x, hidden, logits)
		mat.Softmax(probs, logits)
		// Output layer: dL/dlogit_c = p_c - 1{c==y}.
		for h := range dHidden {
			dHidden[h] = 0
		}
		for c := 0; c < m.Classes; c++ {
			delta := probs[c]
			if c == d.Y[i] {
				delta -= 1
			}
			row := w2[c*m.Hidden : (c+1)*m.Hidden]
			grow := gw2[c*m.Hidden : (c+1)*m.Hidden]
			for h := 0; h < m.Hidden; h++ {
				grow[h] += delta * hidden[h]
				dHidden[h] += delta * row[h]
			}
			gb2[c] += delta
		}
		// Hidden layer: tanh' = 1 - tanh².
		for h := 0; h < m.Hidden; h++ {
			dPre := dHidden[h] * (1 - hidden[h]*hidden[h])
			if dPre == 0 {
				continue
			}
			grow := gw1[h*m.Dim : (h+1)*m.Dim]
			for j, xj := range x {
				grow[j] += dPre * xj
			}
			gb1[h] += dPre
		}
	}
	n := float64(d.Len())
	if n == 0 {
		n = 1
	}
	inv := 1 / n
	for i := range grad {
		grad[i] = grad[i]*inv + m.L2*params[i]
	}
	return grad
}

// Predict returns the argmax class of x.
func (m *MLP) Predict(params []float64, x []float64) int {
	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.Classes)
	m.forward(params, x, hidden, logits)
	return mat.ArgMax(logits)
}

func (m *MLP) checkDims(params []float64, d *dataset.Dataset) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("model: mlp params %d, want %d", len(params), m.NumParams()))
	}
	if d.Len() > 0 && d.Dim() != m.Dim {
		panic(fmt.Sprintf("model: mlp dim %d, dataset dim %d", m.Dim, d.Dim()))
	}
}
