package mat

import (
	"errors"
	"fmt"
	"math"
)

// This file holds the allocation-free Cholesky and ridge kernels. The ALS
// matrix-completion solver needs a small ridge solve for every factor row
// in every sweep — hundreds of thousands per completion — so these kernels
// accumulate the Gram matrix in place, factor in place, and substitute in
// place, with slice-based inner loops instead of bounds-checked At/Set. A ridge solve has two halves:
// RidgeFactorInto (Gram + λI and its Cholesky factor, which depend only on
// the features) and the right-hand side with the two triangular solves.
// RidgeSolveInto runs both for one target vector. ALS runs the first half
// once per observed pattern that several factor rows share, then solves all
// the rows of that pattern at once with RidgeSolveWideInto and takes their
// objective residuals with RidgeResidualsWideInto.
//
// A triangular solve is a serial chain of dependent subtractions and one
// division per unknown, so a single solve runs at the latency of those
// operations. The wide kernel runs one chain per system side by side, four
// systems to a YMM register on a host with AVX2, and the Gram kernel keeps
// each row of the lower triangle in registers while it streams the feature
// rows. Both have a portable Go body that SetSIMD selects. Every value
// still receives the same products in the same order, so all paths — fused,
// factored, wide, and either body — give bit-identical results. The
// residual kernel sums each prediction in Dot's order, four systems to a
// register. CholeskyInto and the single solve's substitutions stay scalar.

// CholeskyInto computes the lower-triangular factor L with a = L Lᵀ into l,
// which must be a square matrix of a's shape (its prior contents are
// overwritten, including the strict upper triangle, which is zeroed). Only
// a's lower triangle is read. It returns ErrNotPositiveDefinite when a is
// not (numerically) symmetric positive definite.
func CholeskyInto(l, a *Dense) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: cholesky of non-square %dx%d", a.rows, a.cols))
	}
	if l.rows != a.rows || l.cols != a.cols {
		panic(fmt.Sprintf("mat: cholesky destination %dx%d for %dx%d input", l.rows, l.cols, a.rows, a.cols))
	}
	n := a.rows
	ld := l.data
	for i := range ld {
		ld[i] = 0
	}
	for j := 0; j < n; j++ {
		lj := ld[j*n : j*n+n]
		d := a.data[j*n+j]
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		for i := j + 1; i < n; i++ {
			li := ld[i*n : i*n+n]
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / ljj
		}
	}
	return nil
}

// CholeskySolveInto solves a x = b given the Cholesky factor l of a,
// writing the solution into x and using y as forward-substitution scratch.
// b, x, and y must all have length n; x may alias b, y must not alias
// either.
func CholeskySolveInto(l *Dense, b, x, y []float64) {
	n := l.rows
	if len(b) != n || len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mat: cholesky solve dimensions %d/%d/%d != %d", len(b), len(x), len(y), n))
	}
	ld := l.data
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		li := ld[i*n : i*n+n]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Back substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
}

// RidgeScratch holds the working storage of the ridge kernels so a caller
// solving many same-rank ridge systems (one per factor row per ALS sweep)
// allocates once per worker instead of once per solve. The zero value is
// usable; buffers grow on demand and are reused across ranks.
type RidgeScratch struct {
	gram *Dense
	chol *Dense
	rhs  []float64
	y    []float64
}

// NewRidgeScratch returns scratch pre-sized for rank-r solves.
func NewRidgeScratch(r int) *RidgeScratch {
	s := &RidgeScratch{}
	s.resize(r)
	return s
}

// resize sizes the buffers for rank r without clearing them.
func (s *RidgeScratch) resize(r int) {
	if s.gram == nil || s.gram.rows < r {
		s.gram = NewDense(r, r)
		s.chol = NewDense(r, r)
		s.rhs = make([]float64, r)
		s.y = make([]float64, r)
		return
	}
	if s.gram.rows > r {
		// Reshape the existing backing arrays down to r×r so row strides
		// match the smaller rank.
		s.gram = NewDenseData(r, r, s.gram.data[:r*r])
		s.chol = NewDenseData(r, r, s.chol.data[:r*r])
		s.rhs = s.rhs[:r]
		s.y = s.y[:r]
	}
}

// ErrRidgeNoObservations is returned by the ridge solvers when called with
// an empty system.
var ErrRidgeNoObservations = errors.New("mat: ridge with no observations")

// RidgeSolveInto solves (AᵀA + λI) x = Aᵀ b into dst (length must equal the
// feature dimension) without allocating: the Gram matrix, Cholesky factor,
// and substitution buffers live in s. One pass over the features
// accumulates the Gram matrix and Aᵀ b together; the factor and the two
// triangular solves follow. It is the ALS solve of a factor row whose
// pattern no other row shares.
func RidgeSolveInto(features [][]float64, targets []float64, lambda float64, dst []float64, s *RidgeScratch) error {
	if len(features) != len(targets) {
		panic(fmt.Sprintf("mat: ridge rows %d != targets %d", len(features), len(targets)))
	}
	if len(features) == 0 {
		return ErrRidgeNoObservations
	}
	r := len(features[0])
	if len(dst) != r {
		panic(fmt.Sprintf("mat: ridge destination %d != rank %d", len(dst), r))
	}
	s.resize(r)
	ridgeGram(s.gram.data, s.rhs, features, targets, lambda)
	if err := CholeskyInto(s.chol, s.gram); err != nil {
		return err
	}
	CholeskySolveInto(s.chol, s.rhs, dst, s.y)
	return nil
}

// RidgeFactorInto forms the ridge Gram matrix AᵀA + λI of features in s
// and writes its Cholesky factor into l, an r×r matrix for rank-r features.
// RidgeSolveWideInto then solves against l for any number of targets over
// the same features: an ALS sweep factors once for all factor rows that
// share one observed pattern.
func RidgeFactorInto(features [][]float64, lambda float64, l *Dense, s *RidgeScratch) error {
	if len(features) == 0 {
		return ErrRidgeNoObservations
	}
	s.resize(len(features[0]))
	ridgeGram(s.gram.data, nil, features, nil, lambda)
	return CholeskyInto(l, s.gram)
}

// gramSIMDMaxRank is the highest rank the vector Gram body keeps in
// registers: a row of the lower triangle takes one YMM accumulator per four
// columns, and rank 7 fills all sixteen with the Aᵀb accumulators and the
// operands.
const gramSIMDMaxRank = 7

// ridgeGram writes the lower triangle of AᵀA + λI for the rank-r features
// into g, an r×r row-major buffer, and, when targets is non-nil, Aᵀ targets
// into b. Entries above the diagonal are left with unspecified values, since
// CholeskyInto reads only the lower triangle. Every entry is summed from +0
// over the feature rows in order, one product f[i]·f[j] (or f[i]·t) and one
// add at a time, on either body.
func ridgeGram(g, b []float64, features [][]float64, targets []float64, lambda float64) {
	r := len(features[0])
	for _, f := range features {
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
	}
	if useSIMD && r <= gramSIMDMaxRank {
		gramSIMD(g, b, features, targets, r)
	} else {
		gramGo(g, b, features, targets, r)
	}
	for i := 0; i < r; i++ {
		g[i*r+i] += lambda
	}
}

// gramGo is the portable body of ridgeGram, before λ. It adds four feature
// rows per load and store of each Gram entry, each entry taking their four
// products in row order.
func gramGo(g, b []float64, features [][]float64, targets []float64, r int) {
	for i := range g {
		g[i] = 0
	}
	n := len(features)
	q := 0
	for ; q+4 <= n; q += 4 {
		f0, f1, f2, f3 := features[q], features[q+1], features[q+2], features[q+3]
		for i := 0; i < r; i++ {
			a0, a1, a2, a3 := f0[i], f1[i], f2[i], f3[i]
			gi := g[i*r : i*r+i+1]
			b0, b1, b2, b3 := f0[:len(gi)], f1[:len(gi)], f2[:len(gi)], f3[:len(gi)]
			for j, v := range gi {
				v += a0 * b0[j]
				v += a1 * b1[j]
				v += a2 * b2[j]
				v += a3 * b3[j]
				gi[j] = v
			}
		}
	}
	for ; q < n; q++ {
		f := features[q]
		for i := 0; i < r; i++ {
			fi := f[i]
			gi := g[i*r : i*r+i+1]
			for j := range gi {
				gi[j] += fi * f[j]
			}
		}
	}
	if targets == nil {
		return
	}
	b = b[:r]
	for i := range b {
		b[i] = 0
	}
	for q, f := range features {
		t := targets[q]
		for i, v := range f[:r] {
			b[i] += v * t
		}
	}
}

// RidgeSolveWideInto solves m ridge systems that share the features and
// the factor l that RidgeFactorInto wrote for them, at once. targets holds
// their right-hand sides entry-major, target q of system c at
// targets[q*m+c], and dst receives the solutions the same way, entry i of
// system c at dst[i*m+c]. It reads l only, so many workers may solve
// against one shared factor.
//
// Each system is solved as a single ridge solve would solve it: the
// right-hand side entry b_i is summed from +0 over the feature rows in
// order, b_i += f_q[i]·t_q; forward substitution takes s = b_i, then
// s −= l_ik·y_k for k ascending, then y_i = s / l_ii; back substitution
// mirrors it over the columns of l. Only the loops are reordered, so every
// system gets a single solve's bits. The vector body runs the systems four
// per YMM register, with a separate multiply and subtract (never a fused
// multiply-add) and a true division, and moves a last group of m mod 4
// systems through a lane mask; a host without AVX2 runs the portable body.
func RidgeSolveWideInto(features [][]float64, targets []float64, m int, l *Dense, dst []float64) {
	r := l.rows
	if m < 0 || len(targets) != len(features)*m {
		panic(fmt.Sprintf("mat: %d targets for %d rows of %d systems", len(targets), len(features), m))
	}
	if len(dst) != r*m {
		panic(fmt.Sprintf("mat: ridge destination %d != rank %d × %d systems", len(dst), r, m))
	}
	for _, f := range features {
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
	}
	if m == 0 {
		return
	}
	if useSIMD {
		solveWideSIMD(dst, targets, features, l.data, r, m)
		return
	}
	solveWideGo(dst, targets, features, l.data, r, m)
}

// solveWideGo is the portable body of RidgeSolveWideInto. It works one row
// of x at a time across the systems, the right-hand side and then the
// forward step, so each inner loop runs over independent systems.
func solveWideGo(x, targets []float64, features [][]float64, l []float64, r, m int) {
	for i := 0; i < r; i++ {
		xi := x[i*m:][:m]
		for j := range xi {
			xi[j] = 0
		}
		for q, f := range features {
			fi, tq := f[i], targets[q*m:][:m]
			for j, t := range tq {
				xi[j] += fi * t
			}
		}
		for k := 0; k < i; k++ {
			lik, xk := l[i*r+k], x[k*m:][:m]
			for j, y := range xk {
				xi[j] -= lik * y
			}
		}
		d := l[i*r+i]
		for j := range xi {
			xi[j] /= d
		}
	}
	for i := r - 1; i >= 0; i-- {
		xi := x[i*m:][:m]
		for k := i + 1; k < r; k++ {
			lki, xk := l[k*r+i], x[k*m:][:m]
			for j, v := range xk {
				xi[j] -= lki * v
			}
		}
		d := l[i*r+i]
		for j := range xi {
			xi[j] /= d
		}
	}
}

// RidgeResidualsWideInto writes the residuals of m fitted systems
// over shared features: x holds their solutions entry-major as
// RidgeSolveWideInto wrote them, entry k of system c at x[k*m+c], and
// targets their observed values the same way, target q of system c at
// targets[q*m+c]. dst[q*m+c] receives t − p, where t is that target and
// p = Σ_k f_q[k]·x[k*m+c] is summed from +0 over k ascending, the
// prediction Dot(f_q, x_c) gives. An ALS sweep that has just solved a
// chunk of factor rows so gets the objective's residuals of their
// observations without reading the rows back.
//
// The vector body runs the systems four per YMM register, four registers
// at a time, with a separate multiply and add (never a fused multiply-add)
// in Dot's operand order, and moves a last group of m mod 4 systems
// through a lane mask; a host without AVX2 runs the portable body.
func RidgeResidualsWideInto(features [][]float64, targets, x []float64, m int, dst []float64) {
	if m < 0 || len(targets) != len(features)*m {
		panic(fmt.Sprintf("mat: %d targets for %d rows of %d systems", len(targets), len(features), m))
	}
	if len(dst) != len(targets) {
		panic(fmt.Sprintf("mat: %d residuals for %d targets", len(dst), len(targets)))
	}
	if m == 0 || len(features) == 0 {
		return
	}
	r := len(features[0])
	if len(x) != r*m {
		panic(fmt.Sprintf("mat: %d solution entries for rank %d × %d systems", len(x), r, m))
	}
	for _, f := range features {
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
	}
	if useSIMD && r > 0 {
		residualsWideSIMD(dst, targets, x, features, r, m)
		return
	}
	residualsWideGo(dst, targets, x, features, m)
}

// residualsWideGo is the portable body of RidgeResidualsWideInto: one Dot
// per system and entry, written out over the strided solution.
func residualsWideGo(dst, targets, x []float64, features [][]float64, m int) {
	for q, f := range features {
		tq, dq := targets[q*m:][:m], dst[q*m:][:m]
		for c, t := range tq {
			var p float64
			for k, v := range f {
				p += v * x[k*m+c]
			}
			dq[c] = t - p
		}
	}
}
