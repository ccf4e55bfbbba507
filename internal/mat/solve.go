package mat

import (
	"errors"
	"fmt"
	"math"
)

// This file holds the allocation-free kernel variants behind Cholesky,
// CholeskySolve, and RidgeSolve. The ALS matrix-completion solver needs a
// small ridge solve for every factor row in every sweep — hundreds of
// thousands per completion — so these kernels accumulate the Gram matrix in
// place, factor in place, and substitute in place, with slice-based inner
// loops instead of bounds-checked At/Set. A ridge solve has two halves:
// RidgeFactorInto (Gram + λI and its Cholesky factor, which depend only on
// the features) and RidgeSolveFactoredInto (the right-hand side and the two
// triangular solves). RidgeSolveInto runs both. ALS runs the first half once
// per observed pattern that several factor rows share, then solves the rows
// of that pattern four at a time with RidgeSolveFactoredBlockInto, and a
// remainder of one to three rows with RidgeSolveFactoredInto.
//
// A triangular solve is a serial chain of dependent subtractions and one
// division per unknown, so a single solve runs at the latency of those
// operations. The block kernel runs four independent chains side by side,
// the way Panel's portable body interleaves four dot products, and the Gram
// accumulation adds four feature rows per load and store of each entry.
// Every value still receives the same products in the same order, so all
// paths — fused, factored, block, and the allocating wrappers in dense.go —
// give bit-identical results.

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
	// rhs4 and y4 are the block kernel's four right-hand sides and forward
	// solutions, interleaved: entry i of column c is at 4*i+c.
	rhs4 []float64
	y4   []float64
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
		s.rhs4 = make([]float64, 4*r)
		s.y4 = make([]float64, 4*r)
		return
	}
	if s.gram.rows > r {
		// Reshape the existing backing arrays down to r×r so row strides
		// match the smaller rank.
		s.gram = NewDenseData(r, r, s.gram.data[:r*r])
		s.chol = NewDenseData(r, r, s.chol.data[:r*r])
		s.rhs = s.rhs[:r]
		s.y = s.y[:r]
		s.rhs4 = s.rhs4[:4*r]
		s.y4 = s.y4[:4*r]
	}
}

// ErrRidgeNoObservations is returned by the ridge solvers when called with
// an empty system.
var ErrRidgeNoObservations = errors.New("mat: ridge with no observations")

// RidgeSolveInto solves (AᵀA + λI) x = Aᵀ b into dst (length must equal the
// feature dimension) without allocating: the Gram matrix, Cholesky factor,
// and substitution buffers live in s. It is RidgeFactorInto followed by
// RidgeSolveFactoredInto, the allocation-free core of RidgeSolve and the
// workhorse of the parallel ALS solver, where each worker owns one scratch.
func RidgeSolveInto(features [][]float64, targets []float64, lambda float64, dst []float64, s *RidgeScratch) error {
	if len(features) != len(targets) {
		panic(fmt.Sprintf("mat: ridge rows %d != targets %d", len(features), len(targets)))
	}
	if len(features) == 0 {
		return ErrRidgeNoObservations
	}
	s.resize(len(features[0]))
	if err := RidgeFactorInto(features, lambda, s.chol, s); err != nil {
		return err
	}
	RidgeSolveFactoredInto(features, targets, s.chol, dst, s)
	return nil
}

// RidgeFactorInto forms the ridge Gram matrix AᵀA + λI of features in s
// and writes its Cholesky factor into l, an r×r matrix for rank-r features.
// Any number of RidgeSolveFactoredInto calls can then solve against l for
// different targets over the same features: an ALS sweep factors once for
// all factor rows that share one observed pattern. Only the Gram matrix's
// lower triangle is accumulated, since CholeskyInto reads no other part.
// Feature rows are added four at a time, each entry taking their four
// products in row order, which is the order a row-at-a-time loop adds them.
func RidgeFactorInto(features [][]float64, lambda float64, l *Dense, s *RidgeScratch) error {
	if len(features) == 0 {
		return ErrRidgeNoObservations
	}
	r := len(features[0])
	s.resize(r)
	gd := s.gram.data
	for i := range gd {
		gd[i] = 0
	}
	n := len(features)
	q := 0
	for ; q+4 <= n; q += 4 {
		f0, f1, f2, f3 := features[q], features[q+1], features[q+2], features[q+3]
		if len(f0) != r || len(f1) != r || len(f2) != r || len(f3) != r {
			panic("mat: ragged feature rows")
		}
		for i := 0; i < r; i++ {
			a0, a1, a2, a3 := f0[i], f1[i], f2[i], f3[i]
			gi := gd[i*r : i*r+i+1]
			b0, b1, b2, b3 := f0[:len(gi)], f1[:len(gi)], f2[:len(gi)], f3[:len(gi)]
			for j, g := range gi {
				g += a0 * b0[j]
				g += a1 * b1[j]
				g += a2 * b2[j]
				g += a3 * b3[j]
				gi[j] = g
			}
		}
	}
	for ; q < n; q++ {
		f := features[q]
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
		for i := 0; i < r; i++ {
			fi := f[i]
			gi := gd[i*r : i*r+i+1]
			for j := range gi {
				gi[j] += fi * f[j]
			}
		}
	}
	for i := 0; i < r; i++ {
		gd[i*r+i] += lambda
	}
	return CholeskyInto(l, s.gram)
}

// RidgeSolveFactoredInto forms Aᵀ b and solves (AᵀA + λI) x = Aᵀ b into dst,
// given the factor l that RidgeFactorInto wrote for the same features and λ.
// It reads l only, so many workers may solve against one shared factor,
// each with its own scratch. Together the two halves compute exactly what
// one fused solve would: every Gram and right-hand-side entry accumulates
// the same products in the same order.
func RidgeSolveFactoredInto(features [][]float64, targets []float64, l *Dense, dst []float64, s *RidgeScratch) {
	if len(features) != len(targets) {
		panic(fmt.Sprintf("mat: ridge rows %d != targets %d", len(features), len(targets)))
	}
	r := l.rows
	if len(dst) != r {
		panic(fmt.Sprintf("mat: ridge destination %d != rank %d", len(dst), r))
	}
	s.resize(r)
	rhs := s.rhs
	for i := range rhs {
		rhs[i] = 0
	}
	for row, f := range features {
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
		t := targets[row]
		for i := 0; i < r; i++ {
			rhs[i] += f[i] * t
		}
	}
	CholeskySolveInto(l, rhs, dst, s.y)
}

// RidgeSolveFactoredBlockInto solves four ridge systems over the same
// features and factor at once: dst[c] gets what
// RidgeSolveFactoredInto(features, targets[c], l, dst[c], s) would write,
// bit for bit. One pass over the features accumulates all four right-hand
// sides, and the forward and back substitutions run the four columns'
// chains interleaved, each column taking its own products in the single
// solve's order. The four dst slices must not overlap.
func RidgeSolveFactoredBlockInto(features [][]float64, targets [4][]float64, l *Dense, dst [4][]float64, s *RidgeScratch) {
	r := l.rows
	for c := range targets {
		if len(targets[c]) != len(features) {
			panic(fmt.Sprintf("mat: ridge rows %d != targets %d", len(features), len(targets[c])))
		}
		if len(dst[c]) != r {
			panic(fmt.Sprintf("mat: ridge destination %d != rank %d", len(dst[c]), r))
		}
	}
	s.resize(r)
	b := s.rhs4
	for i := range b {
		b[i] = 0
	}
	t0, t1, t2, t3 := targets[0], targets[1], targets[2], targets[3]
	for row, f := range features {
		if len(f) != r {
			panic("mat: ragged feature rows")
		}
		a0, a1, a2, a3 := t0[row], t1[row], t2[row], t3[row]
		for i, fi := range f {
			bi := b[4*i : 4*i+4]
			bi[0] += fi * a0
			bi[1] += fi * a1
			bi[2] += fi * a2
			bi[3] += fi * a3
		}
	}
	ld, y := l.data, s.y4
	// Forward substitution: L y_c = b_c.
	for i := 0; i < r; i++ {
		li := ld[i*r : i*r+i+1]
		bi := b[4*i : 4*i+4]
		s0, s1, s2, s3 := bi[0], bi[1], bi[2], bi[3]
		for k, lik := range li[:i] {
			yk := y[4*k : 4*k+4]
			s0 -= lik * yk[0]
			s1 -= lik * yk[1]
			s2 -= lik * yk[2]
			s3 -= lik * yk[3]
		}
		d := li[i]
		yi := y[4*i : 4*i+4]
		yi[0], yi[1], yi[2], yi[3] = s0/d, s1/d, s2/d, s3/d
	}
	// Back substitution: Lᵀ x_c = y_c.
	x0, x1, x2, x3 := dst[0][:r], dst[1][:r], dst[2][:r], dst[3][:r]
	for i := r - 1; i >= 0; i-- {
		yi := y[4*i : 4*i+4]
		s0, s1, s2, s3 := yi[0], yi[1], yi[2], yi[3]
		for k := i + 1; k < r; k++ {
			lki := ld[k*r+i]
			s0 -= lki * x0[k]
			s1 -= lki * x1[k]
			s2 -= lki * x2[k]
			s3 -= lki * x3[k]
		}
		d := ld[i*r+i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
}
