package model

import (
	"fmt"
	"math"

	"comfedsv/internal/dataset"
	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// CNN is the small convolutional classifier used for the image benchmarks:
// a single 3×3 valid convolution with Filters output channels, ReLU, 2×2
// average pooling with stride 2, and a dense softmax head. This is the
// "simple convolutional neural network" class of models from the paper's
// Fashion-MNIST experiments, scaled to the synthetic image stand-ins.
//
// Parameter layout (flat):
//
//	[convW (Filters×Channels×3×3) | convB (Filters) | denseW (Classes×P) | denseB (Classes)]
//
// where P = pooledH·pooledW·Filters.
type CNN struct {
	Shape   dataset.ImageShape
	Filters int
	Classes int
	L2      float64
}

const cnnKernel = 3

// NewCNN returns a CNN for the given image geometry. It panics if the
// images are too small for a 3×3 valid convolution followed by 2×2 pooling.
func NewCNN(shape dataset.ImageShape, filters, classes int) *CNN {
	m := &CNN{Shape: shape, Filters: filters, Classes: classes, L2: 1e-4}
	if m.convH() < 2 || m.convW() < 2 {
		panic(fmt.Sprintf("model: image %dx%d too small for CNN", shape.Height, shape.Width))
	}
	return m
}

func (m *CNN) convH() int   { return m.Shape.Height - cnnKernel + 1 }
func (m *CNN) convW() int   { return m.Shape.Width - cnnKernel + 1 }
func (m *CNN) pooledH() int { return m.convH() / 2 }
func (m *CNN) pooledW() int { return m.convW() / 2 }
func (m *CNN) pooledSize() int {
	return m.pooledH() * m.pooledW() * m.Filters
}
func (m *CNN) convWSize() int {
	return m.Filters * m.Shape.Channels * cnnKernel * cnnKernel
}

// NumParams returns the total flat parameter count.
func (m *CNN) NumParams() int {
	return m.convWSize() + m.Filters + m.Classes*m.pooledSize() + m.Classes
}

// InitParams uses He-style scaling for the conv filters (ReLU) and Xavier
// for the dense head.
func (m *CNN) InitParams(g *rng.RNG) []float64 {
	p := make([]float64, m.NumParams())
	cw, _, dw, _ := m.slices(p)
	fanIn := float64(m.Shape.Channels * cnnKernel * cnnKernel)
	sc := math.Sqrt(2 / fanIn)
	for i := range cw {
		cw[i] = g.Normal(0, sc)
	}
	sd := math.Sqrt(2 / float64(m.pooledSize()+m.Classes))
	for i := range dw {
		dw[i] = g.Normal(0, sd)
	}
	return p
}

func (m *CNN) slices(p []float64) (convW, convB, denseW, denseB []float64) {
	o := 0
	convW = p[o : o+m.convWSize()]
	o += m.convWSize()
	convB = p[o : o+m.Filters]
	o += m.Filters
	denseW = p[o : o+m.Classes*m.pooledSize()]
	o += m.Classes * m.pooledSize()
	denseB = p[o : o+m.Classes]
	return
}

// pixel indexes x as channel-major planes: x[ch*H*W + r*W + c].
func (m *CNN) pixel(x []float64, ch, r, c int) float64 {
	return x[ch*m.Shape.Height*m.Shape.Width+r*m.Shape.Width+c]
}

// cnnScratch holds per-example forward activations reused across the batch.
type cnnScratch struct {
	conv   []float64 // post-ReLU conv activations, filter-major planes
	pre    []float64 // pre-ReLU conv activations
	pooled []float64
	logits []float64
	probs  []float64
}

func (m *CNN) newScratch() *cnnScratch {
	return &cnnScratch{
		conv:   make([]float64, m.Filters*m.convH()*m.convW()),
		pre:    make([]float64, m.Filters*m.convH()*m.convW()),
		pooled: make([]float64, m.pooledSize()),
		logits: make([]float64, m.Classes),
		probs:  make([]float64, m.Classes),
	}
}

// pack packs the dense head's class rows of p into s's first panel for the
// given number of examples.
func (m *CNN) pack(s *scratch, p []float64, examples int) *mat.Panel {
	_, _, denseW, _ := m.slices(p)
	s.w1.Pack(denseW, m.Classes, m.pooledSize(), m.pooledSize(), examples)
	return &s.w1
}

// forward runs one example through the network, the dense head through
// its panel packed from p.
func (m *CNN) forward(dense *mat.Panel, p, x []float64, s *cnnScratch) {
	convW, convB, _, denseB := m.slices(p)
	ch, cw := m.convH(), m.convW()
	// Convolution + ReLU.
	for f := 0; f < m.Filters; f++ {
		fw := convW[f*m.Shape.Channels*cnnKernel*cnnKernel : (f+1)*m.Shape.Channels*cnnKernel*cnnKernel]
		for r := 0; r < ch; r++ {
			for c := 0; c < cw; c++ {
				sum := convB[f]
				for chn := 0; chn < m.Shape.Channels; chn++ {
					for kr := 0; kr < cnnKernel; kr++ {
						for kc := 0; kc < cnnKernel; kc++ {
							sum += fw[chn*cnnKernel*cnnKernel+kr*cnnKernel+kc] * m.pixel(x, chn, r+kr, c+kc)
						}
					}
				}
				idx := f*ch*cw + r*cw + c
				s.pre[idx] = sum
				if sum > 0 {
					s.conv[idx] = sum
				} else {
					s.conv[idx] = 0
				}
			}
		}
	}
	// 2×2 average pooling, stride 2.
	ph, pw := m.pooledH(), m.pooledW()
	for f := 0; f < m.Filters; f++ {
		for r := 0; r < ph; r++ {
			for c := 0; c < pw; c++ {
				base := f * ch * cw
				sum := s.conv[base+(2*r)*cw+2*c] +
					s.conv[base+(2*r)*cw+2*c+1] +
					s.conv[base+(2*r+1)*cw+2*c] +
					s.conv[base+(2*r+1)*cw+2*c+1]
				s.pooled[f*ph*pw+r*pw+c] = sum / 4
			}
		}
	}
	// Dense head.
	dense.MulVec(s.logits, s.pooled)
	for cls := range s.logits {
		s.logits[cls] += denseB[cls]
	}
}

// Loss returns mean cross-entropy over d plus (L2/2)‖params‖².
func (m *CNN) Loss(params []float64, d *dataset.Dataset) float64 {
	m.checkDims(params, d)
	sc := getScratch()
	defer putScratch(sc)
	dense := m.pack(sc, params, d.Len())
	s := m.newScratch()
	var total float64
	for i, x := range d.X {
		m.forward(dense, params, x, s)
		mat.Softmax(s.probs, s.logits)
		total += -math.Log(math.Max(s.probs[d.Y[i]], 1e-15))
	}
	n := float64(d.Len())
	if n == 0 {
		n = 1
	}
	return total/n + 0.5*m.L2*mat.Dot(params, params)
}

// Gradient returns the gradient of Loss at params via backpropagation
// through dense → pool → ReLU → conv.
func (m *CNN) Gradient(params []float64, d *dataset.Dataset) []float64 {
	m.checkDims(params, d)
	sc := getScratch()
	defer putScratch(sc)
	dense := m.pack(sc, params, d.Len())
	grad := make([]float64, m.NumParams())
	gcw, gcb, gdw, gdb := m.slices(grad)
	_, _, denseW, _ := m.slices(params)

	s := m.newScratch()
	ch, cw := m.convH(), m.convW()
	ph, pw := m.pooledH(), m.pooledW()
	ps := m.pooledSize()
	dPooled := make([]float64, ps)
	dConv := make([]float64, m.Filters*ch*cw)

	for i, x := range d.X {
		m.forward(dense, params, x, s)
		mat.Softmax(s.probs, s.logits)

		for j := range dPooled {
			dPooled[j] = 0
		}
		for cls := 0; cls < m.Classes; cls++ {
			delta := s.probs[cls]
			if cls == d.Y[i] {
				delta -= 1
			}
			mat.Axpy(delta, s.pooled, gdw[cls*ps:(cls+1)*ps])
			mat.Axpy(delta, denseW[cls*ps:(cls+1)*ps], dPooled)
			gdb[cls] += delta
		}

		// Pool backward: each pooled cell spreads gradient/4 to its window,
		// then ReLU backward masks by pre-activation sign.
		for j := range dConv {
			dConv[j] = 0
		}
		for f := 0; f < m.Filters; f++ {
			base := f * ch * cw
			for r := 0; r < ph; r++ {
				for c := 0; c < pw; c++ {
					g4 := dPooled[f*ph*pw+r*pw+c] / 4
					for _, idx := range [4]int{
						base + (2*r)*cw + 2*c,
						base + (2*r)*cw + 2*c + 1,
						base + (2*r+1)*cw + 2*c,
						base + (2*r+1)*cw + 2*c + 1,
					} {
						if s.pre[idx] > 0 {
							dConv[idx] += g4
						}
					}
				}
			}
		}

		// Conv backward: accumulate filter and bias gradients.
		for f := 0; f < m.Filters; f++ {
			fw := gcw[f*m.Shape.Channels*cnnKernel*cnnKernel : (f+1)*m.Shape.Channels*cnnKernel*cnnKernel]
			base := f * ch * cw
			for r := 0; r < ch; r++ {
				for c := 0; c < cw; c++ {
					dc := dConv[base+r*cw+c]
					if dc == 0 {
						continue
					}
					gcb[f] += dc
					for chn := 0; chn < m.Shape.Channels; chn++ {
						for kr := 0; kr < cnnKernel; kr++ {
							for kc := 0; kc < cnnKernel; kc++ {
								fw[chn*cnnKernel*cnnKernel+kr*cnnKernel+kc] += dc * m.pixel(x, chn, r+kr, c+kc)
							}
						}
					}
				}
			}
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
func (m *CNN) Predict(params []float64, x []float64) int {
	sc := getScratch()
	defer putScratch(sc)
	s := m.newScratch()
	m.forward(m.pack(sc, params, 1), params, x, s)
	return mat.ArgMax(s.logits)
}

func (m *CNN) checkDims(params []float64, d *dataset.Dataset) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("model: cnn params %d, want %d", len(params), m.NumParams()))
	}
	if d.Len() > 0 && d.Dim() != m.Shape.Size() {
		panic(fmt.Sprintf("model: cnn input %d, dataset dim %d", m.Shape.Size(), d.Dim()))
	}
}
