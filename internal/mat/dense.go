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

// MaxNorm returns the maximum absolute entry of m (the ‖·‖max norm used in
// the ε-rank definition, Definition 3 of the paper).
func (m *Dense) MaxNorm() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// ColSumNorm returns the maximum absolute column sum (the induced 1-norm
// used in Definition 5 of the paper).
func (m *Dense) ColSumNorm() float64 {
	sums := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += math.Abs(v)
		}
	}
	var mx float64
	for _, s := range sums {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Equal reports whether a and b have the same shape and entries within tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with a = L Lᵀ.
// a must be symmetric positive definite; only the lower triangle is read.
// CholeskyInto is the allocation-free variant.
func Cholesky(a *Dense) (*Dense, error) {
	l := NewDense(a.rows, a.cols)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskySolve solves a x = b given the Cholesky factor l of a,
// overwriting and returning a new solution vector. CholeskySolveInto is the
// allocation-free variant.
func CholeskySolve(l *Dense, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: cholesky solve dimension %d != %d", len(b), n))
	}
	x := make([]float64, n)
	y := make([]float64, n)
	CholeskySolveInto(l, b, x, y)
	return x
}

// RidgeSolve solves (AᵀA + λI) x = Aᵀ b for the rows of A given as a slice
// of feature vectors. RidgeSolveInto is the allocation-free variant used on
// the ALS hot path.
func RidgeSolve(features [][]float64, targets []float64, lambda float64) ([]float64, error) {
	if len(features) == 0 {
		return nil, ErrRidgeNoObservations
	}
	dst := make([]float64, len(features[0]))
	if err := RidgeSolveInto(features, targets, lambda, dst, NewRidgeScratch(len(dst))); err != nil {
		return nil, err
	}
	return dst, nil
}
