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

// pack packs both weight layers of p into s's panels for the given number
// of examples.
func (m *MLP) pack(s *scratch, p []float64, examples int) (w1, w2 *mat.Panel) {
	pw1, _, pw2, _ := m.slices(p)
	s.w1.Pack(pw1, m.Hidden, m.Dim, m.Dim, examples)
	s.w2.Pack(pw2, m.Classes, m.Hidden, m.Hidden, examples)
	return &s.w1, &s.w2
}

// forward computes hidden activations and logits for one example through
// the layer panels w1 and w2 packed from p.
func (m *MLP) forward(w1, w2 *mat.Panel, p, x, hidden, logits []float64) {
	_, b1, _, b2 := m.slices(p)
	w1.MulVec(hidden, x)
	mat.TanhBias(hidden, b1)
	w2.MulVec(logits, hidden)
	for c := range logits {
		logits[c] += b2[c]
	}
}

// Loss returns mean cross-entropy over d plus (L2/2)‖params‖².
func (m *MLP) Loss(params []float64, d *dataset.Dataset) float64 {
	m.checkDims(params, d)
	s := getScratch()
	defer putScratch(s)
	w1, w2 := m.pack(s, params, d.Len())
	_, b1, _, b2 := m.slices(params)
	hidden := vec(&s.hidden, lossBlock*m.Hidden)
	s.rows = s.rows[:0]
	for i := 0; i < lossBlock; i++ {
		s.rows = append(s.rows, hidden[i*m.Hidden:][:m.Hidden])
	}
	total := crossEntropy(s, d, m.Classes, func(xs [][]float64, z []float64) {
		rows := s.rows[:len(xs)]
		w1.MulVecs(hidden[:len(xs)*m.Hidden], xs, nil)
		for _, h := range rows {
			mat.TanhBias(h, b1)
		}
		w2.MulVecs(z, rows, b2)
	})
	n := float64(d.Len())
	if n == 0 {
		n = 1
	}
	return total/n + 0.5*m.L2*mat.Dot(params, params)
}

// Gradient returns the gradient of Loss at params via backpropagation.
func (m *MLP) Gradient(params []float64, d *dataset.Dataset) []float64 {
	m.checkDims(params, d)
	s := getScratch()
	defer putScratch(s)
	w1, w2 := m.pack(s, params, d.Len())
	grad := make([]float64, m.NumParams())
	gw1, gb1, gw2, gb2 := m.slices(grad)
	_, _, pw2, _ := m.slices(params)

	hidden, dHidden := vec(&s.hidden, m.Hidden), vec(&s.dHidden, m.Hidden)
	logits, probs := vec(&s.logits, m.Classes), vec(&s.probs, m.Classes)
	for i, x := range d.X {
		m.forward(w1, w2, params, x, hidden, logits)
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
			mat.Axpy(delta, hidden, gw2[c*m.Hidden:(c+1)*m.Hidden])
			mat.Axpy(delta, pw2[c*m.Hidden:(c+1)*m.Hidden], dHidden)
			gb2[c] += delta
		}
		// Hidden layer: tanh' = 1 - tanh².
		for h := 0; h < m.Hidden; h++ {
			dPre := dHidden[h] * (1 - hidden[h]*hidden[h])
			if dPre == 0 {
				continue
			}
			mat.Axpy(dPre, x, gw1[h*m.Dim:(h+1)*m.Dim])
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
	s := getScratch()
	defer putScratch(s)
	w1, w2 := m.pack(s, params, 1)
	logits := vec(&s.logits, m.Classes)
	m.forward(w1, w2, params, x, vec(&s.hidden, m.Hidden), logits)
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
