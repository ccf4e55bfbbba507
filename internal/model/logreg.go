package model

import (
	"fmt"

	"comfedsv/internal/dataset"
	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// LogisticRegression is multinomial (softmax) logistic regression with L2
// regularization. With L2 > 0 its loss is strongly convex, Lipschitz on
// bounded domains and smooth — the function class for which Proposition 2
// of the paper guarantees an O(log T / ε) ε-rank of the utility matrix.
type LogisticRegression struct {
	Dim     int     // feature dimension
	Classes int     // number of classes
	L2      float64 // L2 regularization strength (λ/2 ‖w‖² added to the loss)
}

// NewLogisticRegression returns a logistic-regression model for the given
// geometry with the default regularization used across the experiments.
func NewLogisticRegression(dim, classes int) *LogisticRegression {
	return &LogisticRegression{Dim: dim, Classes: classes, L2: 1e-3}
}

// NumParams returns Classes*(Dim+1): a weight row plus bias per class.
func (m *LogisticRegression) NumParams() int { return m.Classes * (m.Dim + 1) }

// InitParams returns small Gaussian weights (zero init would also work for
// a convex model; small noise breaks ties deterministically given g).
func (m *LogisticRegression) InitParams(g *rng.RNG) []float64 {
	return g.NormalVec(m.NumParams(), 0, 0.01)
}

// pack packs the class weight rows of params, each params[c*(Dim+1):][:Dim],
// into s's first panel for the given number of examples.
func (m *LogisticRegression) pack(s *scratch, params []float64, examples int) *mat.Panel {
	s.w1.Pack(params, m.Classes, m.Dim, m.Dim+1, examples)
	return &s.w1
}

// logits stores each class's score into out, one entry per class: its
// packed weight row dotted with x, plus the bias in the last slot of the
// row's stride in params.
func (m *LogisticRegression) logits(w *mat.Panel, params, x, out []float64) {
	w.MulVec(out, x)
	for c := range out {
		out[c] += params[c*(m.Dim+1)+m.Dim]
	}
}

// Loss returns mean cross-entropy over d plus (L2/2)‖params‖².
func (m *LogisticRegression) Loss(params []float64, d *dataset.Dataset) float64 {
	m.checkDims(params, d)
	s := getScratch()
	defer putScratch(s)
	w := m.pack(s, params, d.Len())
	bias := vec(&s.bias, m.Classes)
	for c := range bias {
		bias[c] = params[c*(m.Dim+1)+m.Dim]
	}
	total := crossEntropy(s, d, m.Classes, func(xs [][]float64, z []float64) {
		w.MulVecs(z, xs, bias)
	})
	n := float64(d.Len())
	if n == 0 {
		n = 1
	}
	reg := 0.5 * m.L2 * mat.Dot(params, params)
	return total/n + reg
}

// Gradient returns the gradient of Loss at params.
func (m *LogisticRegression) Gradient(params []float64, d *dataset.Dataset) []float64 {
	m.checkDims(params, d)
	s := getScratch()
	defer putScratch(s)
	w := m.pack(s, params, d.Len())
	grad := make([]float64, m.NumParams())
	logits, probs := vec(&s.logits, m.Classes), vec(&s.probs, m.Classes)
	for i, x := range d.X {
		m.logits(w, params, x, logits)
		mat.Softmax(probs, logits)
		for c := 0; c < m.Classes; c++ {
			delta := probs[c]
			if c == d.Y[i] {
				delta -= 1
			}
			base := c * (m.Dim + 1)
			mat.Axpy(delta, x, grad[base:base+m.Dim])
			grad[base+m.Dim] += delta
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
func (m *LogisticRegression) Predict(params []float64, x []float64) int {
	s := getScratch()
	defer putScratch(s)
	logits := vec(&s.logits, m.Classes)
	m.logits(m.pack(s, params, 1), params, x, logits)
	return mat.ArgMax(logits)
}

func (m *LogisticRegression) checkDims(params []float64, d *dataset.Dataset) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("model: logreg params %d, want %d", len(params), m.NumParams()))
	}
	if d.Len() > 0 && d.Dim() != m.Dim {
		panic(fmt.Sprintf("model: logreg dim %d, dataset dim %d", m.Dim, d.Dim()))
	}
}
