// Package model implements the learning models the paper trains with
// FedAvg: multinomial logistic regression (synthetic data), a one-hidden-
// layer MLP (MNIST), and a small convolutional network (Fashion-MNIST /
// CIFAR-10 stand-ins). Models are stateless: parameters travel as flat
// []float64 vectors, which is exactly the representation FedAvg averages
// and the utility matrix evaluates.
package model

import (
	"sync"

	"comfedsv/internal/dataset"
	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// Model is a differentiable classifier over flat parameter vectors.
//
// Loss returns the mean regularized cross-entropy of params on d.
// Gradient returns ∇Loss as a fresh vector of length NumParams.
// Predict returns the predicted class of a single feature vector.
type Model interface {
	// NumParams returns the length of the flat parameter vector.
	NumParams() int
	// InitParams returns a freshly initialized parameter vector.
	InitParams(g *rng.RNG) []float64
	// Loss returns the mean loss of params over d.
	Loss(params []float64, d *dataset.Dataset) float64
	// Gradient returns the gradient of Loss at params over d.
	Gradient(params []float64, d *dataset.Dataset) []float64
	// Predict returns the most likely class of x under params.
	Predict(params []float64, x []float64) int
}

// Accuracy returns the fraction of examples of d that m classifies
// correctly under params.
func Accuracy(m Model, params []float64, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for i, x := range d.X {
		if m.Predict(params, x) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// scratch is the reusable storage of one Loss, Gradient or Predict call:
// the weight panels packed once per call for the forward-pass kernel, and
// the per-example vectors. Calls borrow one from scratchPool, so a warm
// utility evaluator runs its forward passes without allocating.
type scratch struct {
	w1, w2                         mat.Panel // w2 only for the MLP's second layer
	hidden, logits, probs, dHidden []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// vec returns *buf resized to n and zeroed, growing it only when its
// capacity is short.
func vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}
