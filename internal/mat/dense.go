// Package mat provides the dense linear-algebra substrate used throughout
// the repository: matrices, vectors, factorizations (Cholesky), a symmetric
// Jacobi eigensolver, and singular-value computation. It is deliberately
// small and allocation-conscious; all experiments in the paper operate on
// matrices with at most a few thousand rows, so a straightforward dense
// implementation is both sufficient and easy to audit.
//
// The models' forward and backward passes, and FedAvg's local steps and
// aggregation, run on a few kernels with two bodies each: a Panel of weight
// rows times one example (Panel.MulVec), Axpy and AddVec. On amd64
// with AVX2 (detected at run time with CPUID and XGETBV) they run assembly
// bodies; everywhere else, and after SetSIMD(false), portable Go bodies.
// The assembly repeats the Go loops' arithmetic lane by lane, a separate
// multiply and add in the same operand order and never a fused
// multiply-add, so both bodies give the same bits and no result depends on
// the host.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero-initialized rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (length must be rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice (row-major).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulT returns a * bᵀ without materializing the transpose.
func MulT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: mulT shape mismatch %dx%d * (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*b.cols : (j+1)*b.cols]
			out.data[i*out.cols+j] = Dot(arow, brow)
		}
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ErrNotPositiveDefinite is returned by CholeskyInto, and by the ridge
// solvers built on it, when the input matrix is not (numerically) symmetric
// positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")
