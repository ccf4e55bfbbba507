package model

import (
	"fmt"
	"math"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// The reference forward passes below compute every weight-row product with
// its own mat.Dot over a row sliced out of the flat parameter vector, every
// activation and softmax with its own math.Tanh and math.Exp calls, and
// every backward update with its own loop — the models' arithmetic before
// the packed-panel, element-wise, exp and tanh kernels. The models must
// match them bit for bit on both kernel bodies.

func refLogRegLogits(m *LogisticRegression, p, x []float64) []float64 {
	logits := make([]float64, m.Classes)
	for c := range logits {
		base := c * (m.Dim + 1)
		logits[c] = mat.Dot(p[base:base+m.Dim], x) + p[base+m.Dim]
	}
	return logits
}

func refMLPForward(m *MLP, p, x []float64) (hidden, logits []float64) {
	w1, b1, w2, b2 := m.slices(p)
	hidden = make([]float64, m.Hidden)
	for h := range hidden {
		hidden[h] = math.Tanh(mat.Dot(w1[h*m.Dim:(h+1)*m.Dim], x) + b1[h])
	}
	logits = make([]float64, m.Classes)
	for c := range logits {
		logits[c] = mat.Dot(w2[c*m.Hidden:(c+1)*m.Hidden], hidden) + b2[c]
	}
	return hidden, logits
}

// refCNNForward reuses the model's convolution and pooling, which the
// kernel does not touch, and recomputes the dense head row by row.
func refCNNForward(m *CNN, p, x []float64) *cnnScratch {
	s := m.newScratch()
	m.forward(m.pack(new(scratch), p, 1), p, x, s)
	_, _, denseW, denseB := m.slices(p)
	ps := m.pooledSize()
	for c := range s.logits {
		s.logits[c] = mat.Dot(denseW[c*ps:(c+1)*ps], s.pooled) + denseB[c]
	}
	return s
}

// refSoftmax is softmax(z) by one math.Exp per class, in Softmax's order:
// the max, the exponentials of the differences summed in index order, then
// each scaled by the reciprocal of the sum.
func refSoftmax(z []float64) []float64 {
	mx := z[0]
	for _, v := range z[1:] {
		if v > mx {
			mx = v
		}
	}
	p := make([]float64, len(z))
	var sum float64
	for i, v := range z {
		p[i] = math.Exp(v - mx)
		sum += p[i]
	}
	inv := 1 / sum
	for i := range p {
		p[i] *= inv
	}
	return p
}

// refLoss is the models' mean cross-entropy plus (L2/2)‖p‖² over the
// reference logits.
func refLoss(logits func(x []float64) []float64, l2 float64, p []float64, d *dataset.Dataset) float64 {
	var total float64
	for i, x := range d.X {
		probs := refSoftmax(logits(x))
		total += -math.Log(math.Max(probs[d.Y[i]], 1e-15))
	}
	n := float64(d.Len())
	if n == 0 {
		n = 1
	}
	return total/n + 0.5*l2*mat.Dot(p, p)
}

// refDeltas returns dL/dlogit = softmax(z) − onehot(y).
func refDeltas(z []float64, y int) []float64 {
	delta := refSoftmax(z)
	delta[y] -= 1
	return delta
}

// refFinish scales the summed per-example gradient by 1/n and adds L2·p.
func refFinish(grad, p []float64, l2 float64, n int) []float64 {
	if n == 0 {
		n = 1
	}
	inv := 1 / float64(n)
	for i := range grad {
		grad[i] = grad[i]*inv + l2*p[i]
	}
	return grad
}

func refLogRegGradient(m *LogisticRegression, p []float64, d *dataset.Dataset) []float64 {
	grad := make([]float64, m.NumParams())
	for i, x := range d.X {
		for c, delta := range refDeltas(refLogRegLogits(m, p, x), d.Y[i]) {
			base := c * (m.Dim + 1)
			for j, xj := range x {
				grad[base+j] += delta * xj
			}
			grad[base+m.Dim] += delta
		}
	}
	return refFinish(grad, p, m.L2, d.Len())
}

func refMLPGradient(m *MLP, p []float64, d *dataset.Dataset) []float64 {
	grad := make([]float64, m.NumParams())
	gw1, gb1, gw2, gb2 := m.slices(grad)
	_, _, w2, _ := m.slices(p)
	for i, x := range d.X {
		hidden, logits := refMLPForward(m, p, x)
		dHidden := make([]float64, m.Hidden)
		for c, delta := range refDeltas(logits, d.Y[i]) {
			for h := range hidden {
				gw2[c*m.Hidden+h] += delta * hidden[h]
				dHidden[h] += delta * w2[c*m.Hidden+h]
			}
			gb2[c] += delta
		}
		for h := range hidden {
			dPre := dHidden[h] * (1 - hidden[h]*hidden[h])
			if dPre == 0 {
				continue
			}
			for j, xj := range x {
				gw1[h*m.Dim+j] += dPre * xj
			}
			gb1[h] += dPre
		}
	}
	return refFinish(grad, p, m.L2, d.Len())
}

func refCNNGradient(m *CNN, p []float64, d *dataset.Dataset) []float64 {
	grad := make([]float64, m.NumParams())
	gcw, gcb, gdw, gdb := m.slices(grad)
	_, _, denseW, _ := m.slices(p)
	ch, cw := m.convH(), m.convW()
	ph, pw := m.pooledH(), m.pooledW()
	ps := m.pooledSize()
	k := m.Shape.Channels * cnnKernel * cnnKernel
	for i, x := range d.X {
		s := refCNNForward(m, p, x)
		dPooled := make([]float64, ps)
		for c, delta := range refDeltas(s.logits, d.Y[i]) {
			for j := 0; j < ps; j++ {
				gdw[c*ps+j] += delta * s.pooled[j]
				dPooled[j] += delta * denseW[c*ps+j]
			}
			gdb[c] += delta
		}
		dConv := make([]float64, m.Filters*ch*cw)
		for f := 0; f < m.Filters; f++ {
			base := f * ch * cw
			for r := 0; r < ph; r++ {
				for c := 0; c < pw; c++ {
					g4 := dPooled[f*ph*pw+r*pw+c] / 4
					for _, idx := range [4]int{
						base + (2*r)*cw + 2*c, base + (2*r)*cw + 2*c + 1,
						base + (2*r+1)*cw + 2*c, base + (2*r+1)*cw + 2*c + 1,
					} {
						if s.pre[idx] > 0 {
							dConv[idx] += g4
						}
					}
				}
			}
		}
		for f := 0; f < m.Filters; f++ {
			for r := 0; r < ch; r++ {
				for c := 0; c < cw; c++ {
					dc := dConv[f*ch*cw+r*cw+c]
					if dc == 0 {
						continue
					}
					gcb[f] += dc
					for chn := 0; chn < m.Shape.Channels; chn++ {
						for kr := 0; kr < cnnKernel; kr++ {
							for kc := 0; kc < cnnKernel; kc++ {
								gcw[f*k+chn*cnnKernel*cnnKernel+kr*cnnKernel+kc] += dc * m.pixel(x, chn, r+kr, c+kc)
							}
						}
					}
				}
			}
		}
	}
	return refFinish(grad, p, m.L2, d.Len())
}

// oracleData draws n Gaussian examples of dimension dim with uniform labels.
func oracleData(seed int64, n, dim, classes int) *dataset.Dataset {
	g := rng.New(seed)
	d := &dataset.Dataset{NumClasses: classes}
	for i := 0; i < n; i++ {
		d.X = append(d.X, g.NormalVec(dim, 0, 1))
		d.Y = append(d.Y, g.Intn(classes))
	}
	return d
}

// checkOracle compares Loss, Gradient and Predict of m against the
// reference on d, bit for bit, with the vector kernel bodies off and then
// on (on a host that has them).
func checkOracle(t *testing.T, m Model, p []float64, d *dataset.Dataset,
	loss func() float64, grad func() []float64, predict func(x []float64) int) {
	t.Helper()
	defer mat.SetSIMD(mat.SetSIMD(false))
	for _, simd := range []bool{false, true} {
		mat.SetSIMD(simd)
		if got, want := m.Loss(p, d), loss(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("simd %v: Loss %v (%#x), reference %v (%#x)", simd, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		got, want := m.Gradient(p, d), grad()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("simd %v: Gradient[%d] %v, reference %v", simd, i, got[i], want[i])
			}
		}
		for i, x := range d.X {
			if got, want := m.Predict(p, x), predict(x); got != want {
				t.Fatalf("simd %v: Predict(example %d) %d, reference %d", simd, i, got, want)
			}
		}
	}
}

var oracleWidths = []int{1, 3, 5, 7, 16, 17}

func TestLogRegMatchesPerRowReference(t *testing.T) {
	for _, classes := range oracleWidths {
		t.Run(fmt.Sprintf("classes-%d", classes), func(t *testing.T) {
			m := NewLogisticRegression(13, classes)
			p := rng.New(int64(classes)).NormalVec(m.NumParams(), 0, 0.5)
			d := oracleData(int64(100+classes), 9, m.Dim, classes)
			logits := func(x []float64) []float64 { return refLogRegLogits(m, p, x) }
			checkOracle(t, m, p, d,
				func() float64 { return refLoss(logits, m.L2, p, d) },
				func() []float64 { return refLogRegGradient(m, p, d) },
				func(x []float64) int { return mat.ArgMax(logits(x)) })
		})
	}
}

func TestMLPMatchesPerRowReference(t *testing.T) {
	for _, hidden := range oracleWidths {
		for _, classes := range oracleWidths {
			t.Run(fmt.Sprintf("hidden-%d/classes-%d", hidden, classes), func(t *testing.T) {
				m := NewMLP(11, hidden, classes)
				p := rng.New(int64(hidden*100+classes)).NormalVec(m.NumParams(), 0, 0.5)
				d := oracleData(int64(hidden+classes), 7, m.Dim, classes)
				logits := func(x []float64) []float64 { _, z := refMLPForward(m, p, x); return z }
				checkOracle(t, m, p, d,
					func() float64 { return refLoss(logits, m.L2, p, d) },
					func() []float64 { return refMLPGradient(m, p, d) },
					func(x []float64) int { return mat.ArgMax(logits(x)) })
			})
		}
	}
}

// oracleBlockCases are the test sets around Loss's block of examples for
// a model of the given geometry: empty, one example, a block short of one,
// a full block, one past it and two blocks and a tail, all with Gaussian
// parameters of deviation 0.5; then parameters of deviation 40, under
// which many label probabilities fall below Loss's 1e-15 floor.
func oracleBlockCases(numParams, dim, classes int) []oracleCase {
	var cases []oracleCase
	p := rng.New(int64(numParams)).NormalVec(numParams, 0, 0.5)
	for _, n := range []int{0, 1, lossBlock - 1, lossBlock, lossBlock + 1, 2*lossBlock + 3} {
		cases = append(cases, oracleCase{fmt.Sprintf("examples-%d", n), p, oracleData(int64(n), n, dim, classes)})
	}
	return append(cases, oracleCase{"scale-40", rng.New(8).NormalVec(numParams, 0, 40), oracleData(7, 2*lossBlock+3, dim, classes)})
}

type oracleCase struct {
	name string
	p    []float64
	d    *dataset.Dataset
}

// checkNaNLoss sets params[i] to NaN for each i of at, and requires Loss
// over two blocks and a tail to be NaN with the same bits on both kernel
// bodies, and the reference to be NaN. Which NaN the reference returns is
// not compared: where the summed cross-entropy and the L2 term are NaNs of
// different payloads, the model's final add and the reference's take
// different ones.
func checkNaNLoss(t *testing.T, m Model, dim, classes int, at ...int) {
	t.Helper()
	p := rng.New(13).NormalVec(m.NumParams(), 0, 0.5)
	for _, i := range at {
		p[i] = math.NaN()
	}
	d := oracleData(14, 2*lossBlock+3, dim, classes)
	defer mat.SetSIMD(mat.SetSIMD(false))
	portable := m.Loss(p, d)
	mat.SetSIMD(true)
	if got := m.Loss(p, d); !math.IsNaN(portable) || math.Float64bits(got) != math.Float64bits(portable) {
		t.Fatalf("Loss %#x on the vector bodies, %#x on the portable ones; want the same NaN", math.Float64bits(got), math.Float64bits(portable))
	}
	if want := refLoss(func(x []float64) []float64 { return refForward(m, p, x) }, 0, p, d); !math.IsNaN(want) {
		t.Fatalf("reference loss %v, want NaN", want)
	}
}

// refForward returns the reference logits of a logistic regression or an
// MLP.
func refForward(m Model, p, x []float64) []float64 {
	switch m := m.(type) {
	case *LogisticRegression:
		return refLogRegLogits(m, p, x)
	case *MLP:
		_, z := refMLPForward(m, p, x)
		return z
	}
	panic("model: no reference forward pass")
}

// TestLogRegBlocksMatchPerRowReference runs the logistic-regression oracle
// across Loss's block boundaries, on the durable_http shape (20 features,
// 10 classes, 192 test examples) and with label probabilities under the
// floor, then Loss with NaN weights.
func TestLogRegBlocksMatchPerRowReference(t *testing.T) {
	m := NewLogisticRegression(20, 10)
	cases := append(oracleBlockCases(m.NumParams(), m.Dim, m.Classes), oracleCase{"perfbench-20x10-test-192",
		rng.New(9).NormalVec(m.NumParams(), 0, 0.5), oracleData(10, 192, m.Dim, m.Classes)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logits := func(x []float64) []float64 { return refLogRegLogits(m, tc.p, x) }
			checkOracle(t, m, tc.p, tc.d,
				func() float64 { return refLoss(logits, m.L2, tc.p, tc.d) },
				func() []float64 { return refLogRegGradient(m, tc.p, tc.d) },
				func(x []float64) int { return mat.ArgMax(logits(x)) })
		})
	}
	for _, c := range []int{0, m.Classes - 1} {
		row := c * (m.Dim + 1)
		t.Run(fmt.Sprintf("nan-weight-class-%d", c), func(t *testing.T) { checkNaNLoss(t, m, m.Dim, m.Classes, row+3) })
		t.Run(fmt.Sprintf("nan-bias-class-%d", c), func(t *testing.T) { checkNaNLoss(t, m, m.Dim, m.Classes, row+m.Dim) })
	}
}

// TestMLPBlocksMatchPerRowReference runs the MLP oracle across Loss's
// block boundaries, on the cold_mlp shape (64 inputs, 16 hidden units, 10
// classes, 100 test examples) and with label probabilities under the
// floor, then Loss with NaN weights in each layer.
func TestMLPBlocksMatchPerRowReference(t *testing.T) {
	m := NewMLP(64, 16, 10)
	cases := append(oracleBlockCases(m.NumParams(), m.Dim, m.Classes), oracleCase{"perfbench-64x16x10-test-100",
		rng.New(11).NormalVec(m.NumParams(), 0, 0.5), oracleData(12, 100, m.Dim, m.Classes)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logits := func(x []float64) []float64 { _, z := refMLPForward(m, tc.p, x); return z }
			checkOracle(t, m, tc.p, tc.d,
				func() float64 { return refLoss(logits, m.L2, tc.p, tc.d) },
				func() []float64 { return refMLPGradient(m, tc.p, tc.d) },
				func(x []float64) int { return mat.ArgMax(logits(x)) })
		})
	}
	w2 := m.Hidden * (m.Dim + 1) // the first weight of the output layer
	t.Run("nan-hidden-weight", func(t *testing.T) { checkNaNLoss(t, m, m.Dim, m.Classes, 5) })
	for _, c := range []int{0, m.Classes - 1} {
		t.Run(fmt.Sprintf("nan-weight-class-%d", c), func(t *testing.T) { checkNaNLoss(t, m, m.Dim, m.Classes, w2+c*m.Hidden+5) })
	}
}

func TestCNNMatchesPerRowReference(t *testing.T) {
	shapes := []struct {
		shape   dataset.ImageShape
		filters int
	}{
		{dataset.ImageShape{Height: 7, Width: 9, Channels: 1}, 1}, // 6 pooled inputs
		{dataset.ImageShape{Height: 8, Width: 7, Channels: 2}, 3}, // 18 pooled inputs
	}
	for _, sh := range shapes {
		for _, classes := range oracleWidths {
			t.Run(fmt.Sprintf("filters-%d/classes-%d", sh.filters, classes), func(t *testing.T) {
				m := NewCNN(sh.shape, sh.filters, classes)
				p := rng.New(int64(sh.filters*100+classes)).NormalVec(m.NumParams(), 0, 0.5)
				d := oracleData(int64(sh.filters+classes), 6, sh.shape.Size(), classes)
				logits := func(x []float64) []float64 { return refCNNForward(m, p, x).logits }
				checkOracle(t, m, p, d,
					func() float64 { return refLoss(logits, m.L2, p, d) },
					func() []float64 { return refCNNGradient(m, p, d) },
					func(x []float64) int { return mat.ArgMax(logits(x)) })
			})
		}
	}
}

// TestForwardPanicsOnRaggedExample pins that an example one feature too
// long never reads a bias or the next row's weights through the stride.
func TestForwardPanicsOnRaggedExample(t *testing.T) {
	const dim = 5
	for name, m := range map[string]Model{
		"logreg": NewLogisticRegression(dim, 3),
		"mlp":    NewMLP(dim, 4, 3),
	} {
		for _, extra := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%s/%+d", name, extra), func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				m.Predict(make([]float64, m.NumParams()), make([]float64, dim+extra))
			})
		}
	}
}
