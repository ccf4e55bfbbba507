// Package vfl implements the paper's stated future direction (Section
// VIII): extending ComFedSV-style valuation to *vertical* federated
// learning, where parties share sample IDs but hold disjoint feature
// blocks. A split multinomial logistic-regression model is trained
// cooperatively — each party owns the weight block for its features, the
// coordinator holds the labels and the bias — and the per-round utility of
// a party coalition is the test-loss decrease of the model restricted to
// that coalition's feature blocks. The resulting T×2^M utility matrix
// plugs into the same completion + Shapley pipeline as the horizontal case.
package vfl

import (
	"fmt"
	"math"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// Party is one vertical data owner: a block of feature columns for every
// training (and test) sample.
type Party struct {
	// Train[i] is the party's feature block of training sample i.
	Train [][]float64
	// Test[i] is the party's feature block of test sample i.
	Test [][]float64
}

// Dim returns the party's feature-block width.
func (p *Party) Dim() int {
	if len(p.Train) == 0 {
		return 0
	}
	return len(p.Train[0])
}

// Problem is a vertical federated learning task.
type Problem struct {
	Parties []Party
	// TrainY and TestY are the coordinator's labels.
	TrainY, TestY []int
	NumClasses    int
}

// Validate checks block and label consistency.
func (p *Problem) Validate() error {
	if len(p.Parties) == 0 {
		return fmt.Errorf("vfl: no parties")
	}
	if p.NumClasses < 2 {
		return fmt.Errorf("vfl: need at least 2 classes, got %d", p.NumClasses)
	}
	nTrain, nTest := len(p.TrainY), len(p.TestY)
	if nTrain == 0 || nTest == 0 {
		return fmt.Errorf("vfl: empty train (%d) or test (%d) labels", nTrain, nTest)
	}
	for i, party := range p.Parties {
		if len(party.Train) != nTrain {
			return fmt.Errorf("vfl: party %d has %d train rows, want %d", i, len(party.Train), nTrain)
		}
		if len(party.Test) != nTest {
			return fmt.Errorf("vfl: party %d has %d test rows, want %d", i, len(party.Test), nTest)
		}
		d := party.Dim()
		for r, row := range party.Train {
			if len(row) != d {
				return fmt.Errorf("vfl: party %d train row %d ragged", i, r)
			}
		}
		for r, row := range party.Test {
			if len(row) != d {
				return fmt.Errorf("vfl: party %d test row %d ragged", i, r)
			}
		}
	}
	for i, y := range p.TrainY {
		if y < 0 || y >= p.NumClasses {
			return fmt.Errorf("vfl: train label %d at %d out of range", y, i)
		}
	}
	for i, y := range p.TestY {
		if y < 0 || y >= p.NumClasses {
			return fmt.Errorf("vfl: test label %d at %d out of range", y, i)
		}
	}
	return nil
}

// Model is the split logistic-regression state: one weight block per party
// plus the coordinator's bias.
type Model struct {
	// Blocks[m] is Classes×Dim_m, stored row-major per class.
	Blocks [][]float64
	Bias   []float64
	// Dims[m] is party m's block width; Classes the label count.
	Dims    []int
	Classes int
	L2      float64
}

// NewModel initializes a split model for the problem.
func NewModel(p *Problem, g *rng.RNG) *Model {
	m := &Model{Classes: p.NumClasses, L2: 1e-3}
	for _, party := range p.Parties {
		d := party.Dim()
		m.Dims = append(m.Dims, d)
		m.Blocks = append(m.Blocks, g.NormalVec(p.NumClasses*d, 0, 0.01))
	}
	m.Bias = make([]float64, p.NumClasses)
	return m
}

// Clone deep-copies the model state.
func (m *Model) Clone() *Model {
	out := &Model{
		Bias:    mat.CopyVec(m.Bias),
		Dims:    append([]int(nil), m.Dims...),
		Classes: m.Classes,
		L2:      m.L2,
	}
	for _, b := range m.Blocks {
		out.Blocks = append(out.Blocks, mat.CopyVec(b))
	}
	return out
}

// logits computes class scores of sample row using only the parties whose
// index appears in active (nil means all). rows selects Train or Test
// blocks via the accessor.
func (m *Model) logits(p *Problem, sample int, test bool, active []bool, out []float64) {
	copy(out, m.Bias)
	for pi := range p.Parties {
		if active != nil && !active[pi] {
			continue
		}
		var x []float64
		if test {
			x = p.Parties[pi].Test[sample]
		} else {
			x = p.Parties[pi].Train[sample]
		}
		block := m.Blocks[pi]
		d := m.Dims[pi]
		for c := 0; c < m.Classes; c++ {
			out[c] += mat.Dot(block[c*d:(c+1)*d], x)
		}
	}
}

// Loss returns mean cross-entropy on the test set using only the active
// parties' blocks (nil = all), plus the L2 regularizer over active blocks.
func (m *Model) Loss(p *Problem, active []bool) float64 {
	logits := make([]float64, m.Classes)
	probs := make([]float64, m.Classes)
	var total float64
	for i := range p.TestY {
		m.logits(p, i, true, active, logits)
		mat.Softmax(probs, logits)
		total += -math.Log(math.Max(probs[p.TestY[i]], 1e-15))
	}
	total /= float64(len(p.TestY))
	var reg float64
	for pi, b := range m.Blocks {
		if active != nil && !active[pi] {
			continue
		}
		reg += mat.Dot(b, b)
	}
	return total + 0.5*m.L2*reg
}

// Step performs one full-batch gradient step of the split model: the
// coordinator computes residuals from the pooled logits and each party
// updates its own block — the standard vertical-LR protocol where raw
// features never leave their owner.
func (m *Model) Step(p *Problem, lr float64) {
	n := len(p.TrainY)
	logits := make([]float64, m.Classes)
	probs := make([]float64, m.Classes)
	gradBias := make([]float64, m.Classes)
	gradBlocks := make([][]float64, len(m.Blocks))
	for pi := range gradBlocks {
		gradBlocks[pi] = make([]float64, len(m.Blocks[pi]))
	}
	for i := 0; i < n; i++ {
		m.logits(p, i, false, nil, logits)
		mat.Softmax(probs, logits)
		for c := 0; c < m.Classes; c++ {
			delta := probs[c]
			if c == p.TrainY[i] {
				delta -= 1
			}
			gradBias[c] += delta
			for pi := range p.Parties {
				x := p.Parties[pi].Train[i]
				d := m.Dims[pi]
				g := gradBlocks[pi][c*d : (c+1)*d]
				for j, xj := range x {
					g[j] += delta * xj
				}
			}
		}
	}
	inv := 1 / float64(n)
	for c := range gradBias {
		m.Bias[c] -= lr * gradBias[c] * inv
	}
	for pi := range m.Blocks {
		b := m.Blocks[pi]
		g := gradBlocks[pi]
		for j := range b {
			b[j] -= lr * (g[j]*inv + m.L2*b[j])
		}
	}
}
