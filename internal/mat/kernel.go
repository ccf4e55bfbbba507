package mat

import "fmt"

// panelLanes is the number of weight rows one pass of the panel kernel
// covers: four 4-wide vector accumulators.
const panelLanes = 16

// useSIMD selects the vector bodies of the panel and element-wise kernels.
// It starts on wherever the host has them; SetSIMD flips it.
var useSIMD = haveSIMD

// SetSIMD turns the vector kernel bodies on or off and returns the previous
// setting. Turning them on has no effect on a host without them. Both
// bodies give the same bits, so only speed depends on it; tests flip it to
// run both bodies in one process. It must not be called while another
// goroutine uses this package.
func SetSIMD(on bool) (was bool) {
	was, useSIMD = useSIMD, on && haveSIMD
	return was
}

// Panel is a block of weight rows prepared for the forward-pass kernel:
// the product of the rows with one example at a time. A Panel is reused
// across Pack calls, so a warm caller packs without allocating.
//
// For the vector body, Pack copies the rows into groups of 16 lanes, each
// group stored column by column: column i of a group is 16 consecutive
// floats, one per row, with a padded lane holding 0. One pass over a
// group's columns then loads a whole column at a time and computes 16 dot
// products at once, for one example (MulVec) or for two (MulVecs, which
// multiplies each loaded column by both examples' entries, so the two sets
// of add chains overlap and each column is loaded once). The portable body reads the rows where they are, four
// at a time: on the packed layout its per-column bounds checks made it
// slower than the row loop. It also serves a few examples, which a copy
// would not pay for.
type Panel struct {
	rows, cols, stride int
	w                  []float64 // the rows in place, for the portable body
	data               []float64 // the packed groups, for the vector body
	simd               bool      // which body Pack prepared for
}

// packMinExamples is the fewest examples for which Pack copies the rows
// for the vector body. The copy costs about one portable pass over the
// block and the vector body saves about two thirds of each pass, so the
// copy pays for itself from about four examples on.
const packMinExamples = 4

// Pack prepares the rows×cols weight block whose row r is
// w[r*stride:r*stride+cols] for examples MulVec calls, replacing what p
// held. The portable body reads w itself, so w must not change while p is
// in use. It panics when the rows overlap (stride < cols) or overrun w.
func (p *Panel) Pack(w []float64, rows, cols, stride, examples int) {
	if rows < 0 || cols < 0 || (rows > 0 && (stride < cols || (rows-1)*stride+cols > len(w))) {
		panic(fmt.Sprintf("mat: %d rows of %d at stride %d do not fit %d weights", rows, cols, stride, len(w)))
	}
	p.rows, p.cols, p.stride, p.w = rows, cols, stride, w
	p.simd = useSIMD && examples >= packMinExamples
	if !p.simd {
		return
	}
	group := cols * panelLanes
	n := (rows + panelLanes - 1) / panelLanes * group
	if cap(p.data) < n {
		p.data = make([]float64, n)
	}
	p.data = p.data[:n]
	for r := 0; r < rows; r++ {
		o := r/panelLanes*group + r%panelLanes
		for i, v := range w[r*stride : r*stride+cols] {
			p.data[o+i*panelLanes] = v
		}
	}
	for r := rows; r%panelLanes != 0; r++ {
		o := r/panelLanes*group + r%panelLanes
		for i := 0; i < cols; i++ {
			p.data[o+i*panelLanes] = 0
		}
	}
}

// MulVec stores the dot product of row r with x into dst[r] for every row.
// It panics where Dot would, when len(x) differs from the row length, so a
// ragged example never reads a bias stored in the stride's gap; it also
// panics when len(dst) differs from the row count.
//
// Each row sums its products w[r][i]*x[i] in Dot's index order, starting
// from +0, with a separate multiply and add (never a fused multiply-add),
// so every result keeps Dot's bits. The vector body does 16 rows per pass
// with AVX2. The portable body, which every other host runs, walks four
// rows at once with four independent accumulators, so the adds of
// different rows overlap in the pipeline; a tail of fewer than four rows
// calls Dot.
func (p *Panel) MulVec(dst, x []float64) {
	if len(x) != p.cols {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", p.cols, len(x)))
	}
	if len(dst) != p.rows {
		panic(fmt.Sprintf("mat: %d rows into %d results", p.rows, len(dst)))
	}
	if !p.simd {
		dotRowsGo(dst, p.w, p.stride, x)
		return
	}
	var out [panelLanes]float64
	group := p.cols * panelLanes
	for r := 0; r < p.rows; r += panelLanes {
		dotPanelSIMD(&out, p.data[r/panelLanes*group:][:group], x)
		copy(dst[r:], out[:])
	}
}

// MulVecs is MulVec for a block of examples, with a bias: it stores the
// product of row r with xs[i], plus bias[r] when bias is not nil, into
// dst[i*rows+r]. Each result has the bits of MulVec's followed by
// dst[r] += bias[r]. It panics where MulVec would, when len(dst) is not
// len(xs) rows, or when a non-nil bias has other than one entry per row.
// The vector body takes the examples two at a time, loading each column
// of a group once for both, so the two examples' add chains overlap in the
// pipeline.
func (p *Panel) MulVecs(dst []float64, xs [][]float64, bias []float64) {
	if len(dst) != len(xs)*p.rows || (bias != nil && len(bias) != p.rows) {
		panic(fmt.Sprintf("mat: %d examples of %d rows into %d results with %d biases", len(xs), p.rows, len(dst), len(bias)))
	}
	i := 0
	if p.simd {
		var out0, out1 [panelLanes]float64
		group := p.cols * panelLanes
		for ; i+2 <= len(xs); i += 2 {
			x0, x1 := xs[i], xs[i+1]
			if len(x0) != p.cols || len(x1) != p.cols {
				panic(fmt.Sprintf("mat: dot length mismatch %d vs %d and %d", p.cols, len(x0), len(x1)))
			}
			dst0, dst1 := dst[i*p.rows:][:p.rows], dst[(i+1)*p.rows:][:p.rows]
			for r := 0; r < p.rows; r += panelLanes {
				dotPanel2SIMD(&out0, &out1, p.data[r/panelLanes*group:][:group], x0, x1)
				d0, d1 := dst0[r:min(r+panelLanes, p.rows)], dst1[r:min(r+panelLanes, p.rows)]
				if bias == nil {
					copy(d0, out0[:])
					copy(d1, out1[:])
					continue
				}
				b := bias[r:][:len(d0)]
				for k, v := range b {
					d0[k] = out0[k] + v
					d1[k] = out1[k] + v
				}
			}
		}
	}
	for ; i < len(xs); i++ {
		d := dst[i*p.rows:][:p.rows]
		p.MulVec(d, xs[i])
		for r, v := range bias {
			d[r] += v
		}
	}
}

// dotRowsGo stores Dot(w[r*stride:][:len(x)], x) into dst[r] for every row.
func dotRowsGo(dst, w []float64, stride int, x []float64) {
	rows := len(dst)
	r := 0
	for ; r+4 <= rows; r += 4 {
		o := r * stride
		w0 := w[o:][:len(x)]
		w1 := w[o+stride:][:len(x)]
		w2 := w[o+2*stride:][:len(x)]
		w3 := w[o+3*stride:][:len(x)]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		dst[r] = Dot(w[r*stride:][:len(x)], x)
	}
}
