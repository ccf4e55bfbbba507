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
// RidgeSolveInto runs both for one target vector and checks its features
// on every call. ALS instead checks its features once, when it builds a
// FeatureRows, and then runs three kernels on them: RidgeFactorInto once
// per observed pattern that several factor rows share, RidgeSolveWideInto
// for all the rows of that pattern at once, and RidgeSolveUniqueInto for
// up to four rows whose patterns no other row shares. RidgeResidualsWideInto
// takes the objective's residuals of solved rows.
//
// A Cholesky factor and a triangular solve are serial chains of dependent
// subtractions, square roots and divisions, so a single solve runs at the
// latency of those operations. The wide kernel runs one chain per system
// side by side, four systems to a YMM register on a host with AVX2, and
// stores each group of four solutions into their factor rows through an
// in-register transpose. The unique kernel runs four independent ridge
// problems the same way, one per lane: each lane's Gram matrix comes from
// the Gram kernel, which keeps each row of the lower triangle in registers
// while it streams the feature rows, and the lanes then factor and solve
// together. Every kernel has a portable Go body that SetSIMD selects.
// Every value still receives the same products in the same order, so all
// paths — fused, factored, wide, unique, and either body — give
// bit-identical results. The residual kernel sums each prediction in Dot's
// order, four systems to a register.

// FeatureRows is a list of ridge feature rows that all have one length,
// the rank. NewFeatureRows checks the lengths once, so the kernels that
// take a FeatureRows read rank entries of every row without checking
// again: ALS builds its views into the opposite factor once per restart
// and solves against them in every sweep.
type FeatureRows struct {
	rows [][]float64
	rank int
}

// NewFeatureRows wraps rows, each of which must have length rank, without
// copying them.
func NewFeatureRows(rows [][]float64, rank int) FeatureRows {
	for _, f := range rows {
		if len(f) != rank {
			panic("mat: ragged feature rows")
		}
	}
	return FeatureRows{rows: rows, rank: rank}
}

// Slice returns the n rows from row at on.
func (f FeatureRows) Slice(at, n int) FeatureRows {
	return FeatureRows{rows: f.rows[at:][:n], rank: f.rank}
}

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
	// lanes is RidgeSolveUniqueInto's storage, grown on demand.
	lanes []float64
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
// triangular solves follow. It is the one-system reference the ALS kernels
// match bit for bit.
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
	ridgeGram(s.gram.data, s.rhs, NewFeatureRows(features, r), targets, lambda)
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
func RidgeFactorInto(features FeatureRows, lambda float64, l *Dense, s *RidgeScratch) error {
	if len(features.rows) == 0 {
		return ErrRidgeNoObservations
	}
	s.resize(features.rank)
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
// add at a time, on either body. There must be at least one feature row.
func ridgeGram(g, b []float64, features FeatureRows, targets []float64, lambda float64) {
	r := features.rank
	if useSIMD && r <= gramSIMDMaxRank {
		gramSIMD(g, b, features.rows, targets, r)
	} else {
		gramGo(g, b, features.rows, targets, r)
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

// RidgeSolveWideInto solves len(rows) ridge systems that share the
// features and the factor l that RidgeFactorInto wrote for them, at once,
// and stores system c's solution into row rows[c] of dst, whose rows have
// the rank's length. targets holds their right-hand sides entry-major,
// target q of system c at targets[q*m+c] for m = len(rows), and x receives
// the solutions the same way, entry i of system c at x[i*m+c], as
// RidgeResidualsWideInto reads them. It reads l only, so many workers may
// solve against one shared factor.
//
// Each system is solved as a single ridge solve would solve it: the
// right-hand side entry b_i is summed from +0 over the feature rows in
// order, b_i += f_q[i]·t_q; forward substitution takes s = b_i, then
// s −= l_ik·y_k for k ascending, then y_i = s / l_ii; back substitution
// mirrors it over the columns of l. Only the loops are reordered, so every
// system gets a single solve's bits. The vector body runs the systems four
// per YMM register, with a separate multiply and subtract (never a fused
// multiply-add) and a true division, and moves a last group of m mod 4
// systems through a lane mask; it then transposes each group's solutions
// four entries at a time in registers and stores them into the rows. A
// host without AVX2 runs the portable body.
func RidgeSolveWideInto(features FeatureRows, targets []float64, l *Dense, x []float64, dst *Dense, rows []int) {
	r, m := l.rows, len(rows)
	if features.rank != r || dst.cols != r {
		panic(fmt.Sprintf("mat: rank-%d features and %d-column rows for a rank-%d factor", features.rank, dst.cols, r))
	}
	if len(targets) != len(features.rows)*m {
		panic(fmt.Sprintf("mat: %d targets for %d rows of %d systems", len(targets), len(features.rows), m))
	}
	if len(x) != r*m {
		panic(fmt.Sprintf("mat: ridge solutions %d != rank %d × %d systems", len(x), r, m))
	}
	checkRows(dst, rows)
	if m == 0 || r == 0 {
		return
	}
	if useSIMD {
		solveWideSIMD(x, targets, features.rows, l.data, dst.data, rows, r)
		return
	}
	solveWideGo(x, targets, features.rows, l.data, r, m)
	for c, i := range rows {
		row := dst.data[i*r:][:r]
		for j := range row {
			row[j] = x[j*m+c]
		}
	}
}

// checkRows panics unless every index in rows is a row of dst: the vector
// bodies store into those rows unchecked.
func checkRows(dst *Dense, rows []int) {
	for _, i := range rows {
		if uint(i) >= uint(dst.rows) {
			panic(fmt.Sprintf("mat: row %d of a %d-row destination", i, dst.rows))
		}
	}
}

// solveWideGo is the portable body of RidgeSolveWideInto's solve. It works
// one row of x at a time across the systems, the right-hand side and then
// the forward step, so each inner loop runs over independent systems.
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

// UniqueLanes is the most systems RidgeSolveUniqueInto solves at once: one
// per lane of a YMM register.
const UniqueLanes = 4

// RidgeSolveUniqueInto solves m = len(rows) ridge systems of their own
// features at once, 1 ≤ m ≤ 4, and stores system c's solution into row
// rows[c] of dst, whose rows have the rank's length. System c's features
// and targets are the next counts[c] ≥ 1 of features and targets, and its
// weight is lambdas[c]. It is ALS's solve of rows whose observed patterns
// no other row shares, so that no factor can be shared.
//
// Every system gets RidgeSolveInto's bits: its Gram matrix and Aᵀb from
// ridgeGram, then CholeskyInto's factor and CholeskySolveInto's
// substitutions. The vector body factors and solves the systems one per
// lane of a YMM register, in those functions' order: a separate multiply
// and subtract, VSQRTPD and a true VDIVPD, each lane failing the
// positive-definite test as CholeskyInto does. A host without AVX2 runs
// CholeskyInto and CholeskySolveInto on one system after another. When a
// system has no features it returns ErrRidgeNoObservations, and when a
// system's Gram matrix is not positive definite ErrNotPositiveDefinite,
// the error of the first such system; then it stores nothing.
func RidgeSolveUniqueInto(features FeatureRows, targets []float64, counts []int, lambdas []float64, dst *Dense, rows []int, s *RidgeScratch) error {
	r, m := features.rank, len(rows)
	if r < 1 || m < 1 || m > UniqueLanes || len(counts) != m || len(lambdas) != m {
		panic(fmt.Sprintf("mat: %d rank-%d systems with %d counts and %d weights", m, r, len(counts), len(lambdas)))
	}
	if dst.cols != r || len(targets) != len(features.rows) {
		panic(fmt.Sprintf("mat: %d targets for %d rank-%d feature rows into %d columns", len(targets), len(features.rows), r, dst.cols))
	}
	checkRows(dst, rows)
	// w holds UniqueLanes Gram matrices, then their right-hand sides, then
	// the vector body's working storage: the factors with their lanes
	// interleaved and the solutions padded to whole groups of four.
	rr := r * r
	rpad := (r + UniqueLanes - 1) / UniqueLanes * UniqueLanes
	need := 2*UniqueLanes*rr + UniqueLanes*r + UniqueLanes*rpad
	if cap(s.lanes) < need {
		s.lanes = make([]float64, need)
	}
	w := s.lanes[:need]
	g, b := w[:UniqueLanes*rr], w[UniqueLanes*rr:][:UniqueLanes*r]
	at := 0
	for c, n := range counts {
		if n < 1 {
			return ErrRidgeNoObservations
		}
		ridgeGram(g[c*rr:][:rr], b[c*r:][:r], features.Slice(at, n), targets[at:at+n], lambdas[c])
		at += n
	}
	if at != len(targets) {
		panic(fmt.Sprintf("mat: counts cover %d of %d feature rows", at, len(targets)))
	}
	if useSIMD {
		if solveUniqueSIMD(dst.data, w, rows, r) != 0 {
			return ErrNotPositiveDefinite
		}
		return nil
	}
	// The portable body factors every system before it stores any, so a
	// failure leaves dst as it was; the factors go where the vector body
	// keeps its own.
	chol := w[UniqueLanes*(rr+r):][:UniqueLanes*rr]
	for c := range rows {
		a := Dense{rows: r, cols: r, data: g[c*rr:][:rr]}
		l := Dense{rows: r, cols: r, data: chol[c*rr:][:rr]}
		if err := CholeskyInto(&l, &a); err != nil {
			return err
		}
	}
	y := w[len(w)-r:]
	for c, i := range rows {
		l := Dense{rows: r, cols: r, data: chol[c*rr:][:rr]}
		CholeskySolveInto(&l, b[c*r:][:r], dst.data[i*r:][:r], y)
	}
	return nil
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
func RidgeResidualsWideInto(features FeatureRows, targets, x []float64, m int, dst []float64) {
	if m < 0 || len(targets) != len(features.rows)*m {
		panic(fmt.Sprintf("mat: %d targets for %d rows of %d systems", len(targets), len(features.rows), m))
	}
	if len(dst) != len(targets) {
		panic(fmt.Sprintf("mat: %d residuals for %d targets", len(dst), len(targets)))
	}
	r := features.rank
	if len(x) != r*m {
		panic(fmt.Sprintf("mat: %d solution entries for rank %d × %d systems", len(x), r, m))
	}
	if m == 0 || len(features.rows) == 0 {
		return
	}
	if useSIMD && r > 0 {
		residualsWideSIMD(dst, targets, x, features.rows, r, m)
		return
	}
	residualsWideGo(dst, targets, x, features.rows, m)
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
