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
// the per-example vectors, which Loss sizes for a block of lossBlock
// examples. Calls borrow one from scratchPool, so a warm utility
// evaluator runs its forward passes without allocating.
type scratch struct {
	w1, w2                         mat.Panel // w2 only for the MLP's second layer
	hidden, logits, probs, dHidden []float64
	bias                           []float64   // the logistic regression's class biases, gathered
	rows                           [][]float64 // a block's hidden rows, the MLP's second-layer inputs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// lossBlock is the number of test examples the logistic-regression and
// MLP losses take through each layer together: a block's logits, then all
// of its exponentials in one call of the exp kernel and all of its logs in
// one call of the log kernel, which a single example's 10 classes would
// leave latency-bound. Its scratch is a few lossBlock-long rows.
const lossBlock = 16

// crossEntropy returns the sum over d's examples, in order, of the
// cross-entropy −log(max(p, 1e-15)) of the softmax probability p of the
// example's label, with the bits of a per-example mat.Softmax and
// math.Log. forward stores the logits of a block of examples xs into z,
// one row of classes entries per example.
func crossEntropy(s *scratch, d *dataset.Dataset, classes int, forward func(xs [][]float64, z []float64)) float64 {
	z, logp := vec(&s.logits, lossBlock*classes), vec(&s.probs, lossBlock)
	var total float64
	for lo := 0; lo < d.Len(); lo += lossBlock {
		hi := min(lo+lossBlock, d.Len())
		n := hi - lo
		forward(d.X[lo:hi], z[:n*classes])
		mat.LabelLogProbs(logp[:n], z[:n*classes], classes, d.Y[lo:hi])
		for _, l := range logp[:n] {
			total += -l
		}
	}
	return total
}

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
