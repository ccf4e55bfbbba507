// Package mc implements factorization-based low-rank matrix completion:
//
//	minimize_{W,H}  Σ_{(t,S) observed} (U_{t,S} − w_tᵀ h_S)² + λ(‖W‖²_F + ‖H‖²_F)
//
// the problem (9)/(13) the paper solves to complete the utility matrix. The
// paper uses LIBPMF; this package solves the same problem from scratch by
// alternating least squares: deterministic, each factor row a small ridge
// regression solved by Cholesky.
//
// A utility matrix is highly patterned: most Monte-Carlo prefix columns are
// observed only in the everyone-heard round, so many factor rows observe
// the same ordered sequence of opposite-factor indices and so have the same
// ridge Gram matrix. ALS groups the rows of W and of H by that pattern once
// per Complete call and splits them into a work list: chunks of up to
// wideChunk rows of one shared pattern (a pattern at least two rows
// observe), groups of up to mat.UniqueLanes rows whose patterns are unique,
// and single rows with no entries. The plan also lays every item's observed
// values out once, so no sweep copies them. Each attempt points its ridge
// features into the opposite factor once, one view list per shared pattern
// and per unique row, since a factor's backing array is fixed for the whole
// attempt. Each half-sweep first factors Gram + λI once for every shared
// pattern, then works through the list. A chunk solves all its rows against
// the shared factor in one wide kernel call, which runs the rows'
// right-hand sides and triangular solves four to a vector register and
// stores the solutions into the factor rows. A group of unique rows runs
// one unique kernel call, which builds each row's Gram matrix and then
// factors and solves the rows one per lane of a vector register. A row with
// no entries is zeroed. Every path accumulates the same products in the
// same order, so the result is bit-identical to solving every row on its
// own, for any worker count and on either kernel body.
//
// The stopping rule needs the objective after every sweep. The H
// half-sweep computes it on the way: the wide residual kernel reads a
// chunk's solutions where the solve left them in its lanes, and a
// unique-pattern column's as a chunk of one, and writes each residual at
// its target's offset. The objective then sums their squares in
// observation order, and ‖W‖² and ‖H‖² in their data order, three serial
// chains run side by side, so it keeps the bits of recomputing every
// prediction and both Frobenius norms from the factors.
package mc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// ErrCollapsed reports a fit that shrank to the zero fixed point, as too
// large a λ for the scale of the observed values does: their RMS is
// positive, but the fit's RMS on the same cells is below 1e-3 of it.
var ErrCollapsed = errors.New("mc: completion collapsed to zero")

// Entry is one observed matrix cell.
type Entry struct {
	Row, Col int
	Val      float64
}

// Config controls a completion run.
type Config struct {
	// Rank is the factorization rank r (the paper sweeps r in Fig. 3 and
	// bounds the useful range via Propositions 1–2).
	Rank int
	// Lambda is the L2 regularization weight λ.
	Lambda float64
	// MaxIter bounds the number of ALS sweeps.
	MaxIter int
	// Tol stops early when the relative objective decrease falls below it.
	Tol float64
	// WeightedReg scales the regularization of each factor row by its
	// number of observations (the ALS-WR scheme of Zhou et al.). This keeps
	// the effective shrinkage uniform when the observation pattern is very
	// skewed — exactly the situation of the utility matrix, where the
	// Everyone-Being-Heard round observes every column once but later
	// rounds observe only a few columns.
	WeightedReg bool
	// Restarts is the number of random initializations tried; the fit with
	// the lowest objective wins. ALS is non-convex and an occasional
	// initialization lands in a poor local minimum; a handful of restarts
	// makes completion robust. Values below 1 mean 1.
	Restarts int
	// Seed drives factor initialization.
	Seed int64
	// Workers bounds the number of goroutines the solver may use; 0 means
	// GOMAXPROCS. ALS parallelizes across restarts and across factor rows
	// (row updates against a fixed opposite factor are independent and
	// write disjoint slices), so the result is bit-identical for every
	// worker count.
	Workers int
	// Warm, if non-nil, warm-starts the first attempt from prior factors —
	// typically the previous wave's fit in an adaptive valuation, or a
	// previous job's fit over the same run. The warm factors are copied,
	// never mutated; rows beyond the warm factors' shape (a problem that
	// grew new rows or columns) are drawn from the seeded RNG exactly as a
	// cold start draws them, and a rank mismatch falls back to a fully cold
	// first attempt. Remaining restarts stay cold, so a poor warm basin can
	// still lose to a fresh initialization. Warm-starting is deterministic:
	// the result is a pure function of the observations, the config, and
	// the warm factors.
	Warm *Warm
}

// Warm holds initial factors for a warm-started completion solve.
type Warm struct {
	// W is rows×rank, H is cols×rank — the shapes of a prior Result's
	// factors for the same (or a smaller) problem at the same rank.
	W, H *mat.Dense
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig(rank int) Config {
	return Config{
		Rank:        rank,
		Lambda:      0.01,
		MaxIter:     60,
		Tol:         1e-7,
		WeightedReg: true,
		Restarts:    3,
		Seed:        7,
	}
}

// Result holds the fitted factors.
type Result struct {
	// W is rows×rank, H is cols×rank; the completed matrix is W Hᵀ.
	W, H *mat.Dense
	// Objective is the final value of the regularized objective.
	Objective float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// TrainRMSE is the root-mean-squared error on the observed entries.
	TrainRMSE float64
}

// Predict returns the completed value of cell (row, col).
func (r *Result) Predict(row, col int) float64 {
	return mat.Dot(r.W.Row(row), r.H.Row(col))
}

// Completed materializes the full completed matrix W Hᵀ.
func (r *Result) Completed() *mat.Dense {
	return mat.MulT(r.W, r.H)
}

// Complete fits a rank-cfg.Rank factorization of a rows×cols matrix from
// the observed entries, keeping the best of cfg.Restarts random
// initializations. Restarts run concurrently up to cfg.Workers; the winner
// (lowest objective, earliest attempt on ties) is the same one the serial
// loop would pick, so results do not depend on the worker count.
func Complete(obs []Entry, rows, cols int, cfg Config) (*Result, error) {
	if err := validate(obs, rows, cols, cfg); err != nil {
		return nil, err
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	conc := restarts
	if conc > workers {
		conc = workers
	}
	// Divide the worker budget across concurrent restarts so total
	// goroutine pressure stays at cfg.Workers.
	inner := workers / conc
	if inner < 1 {
		inner = 1
	}

	// Only the first attempt is warm-started; later restarts stay cold so
	// the restart mechanism keeps its job of escaping a poor basin.
	warmFor := func(attempt int) *Warm {
		if attempt == 0 {
			return cfg.Warm
		}
		return nil
	}
	// The observation layout is a function of obs alone, so every restart
	// reads the same one.
	plan := newALSPlan(obs, rows, cols)
	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	if conc <= 1 {
		for attempt := 0; attempt < restarts; attempt++ {
			results[attempt], errs[attempt] = completeOnce(plan, rows, cols, cfg, cfg.Seed+int64(attempt), workers, warmFor(attempt))
		}
	} else {
		sem := make(chan struct{}, conc)
		var wg sync.WaitGroup
		for attempt := 0; attempt < restarts; attempt++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(attempt int) {
				defer wg.Done()
				defer func() { <-sem }()
				results[attempt], errs[attempt] = completeOnce(plan, rows, cols, cfg, cfg.Seed+int64(attempt), inner, warmFor(attempt))
			}(attempt)
		}
		wg.Wait()
	}

	var best *Result
	for attempt := 0; attempt < restarts; attempt++ {
		if errs[attempt] != nil {
			return nil, errs[attempt]
		}
		if best == nil || results[attempt].Objective < best.Objective {
			best = results[attempt]
		}
	}
	var observed, fitted float64 // sums of squares over the observed cells
	for _, e := range obs {
		p := best.Predict(e.Row, e.Col)
		observed += e.Val * e.Val
		fitted += p * p
	}
	if observed > 0 && math.Sqrt(fitted) < 1e-3*math.Sqrt(observed) {
		n := float64(len(obs))
		return nil, fmt.Errorf("%w: fitted RMS %.3g on observed entries of RMS %.3g", ErrCollapsed, math.Sqrt(fitted/n), math.Sqrt(observed/n))
	}
	return best, nil
}

func completeOnce(plan *alsPlan, rows, cols int, cfg Config, seed int64, workers int, warm *Warm) (*Result, error) {
	w, h := initFactors(rows, cols, cfg, seed, warm)
	return completeALS(plan, w, h, cfg, workers)
}

// initFactors draws one attempt's starting factors, warm-started from warm
// when its rank matches.
func initFactors(rows, cols int, cfg Config, seed int64, warm *Warm) (w, h *mat.Dense) {
	g := rng.New(seed)
	scale := 1 / math.Sqrt(float64(cfg.Rank))
	if warm != nil && (warm.W == nil || warm.H == nil || warm.W.Cols() != cfg.Rank || warm.H.Cols() != cfg.Rank) {
		warm = nil // rank mismatch: the warm factors cannot seed this problem
	}
	if warm != nil {
		return warmFactor(rows, cfg.Rank, scale, g, warm.W), warmFactor(cols, cfg.Rank, scale, g, warm.H)
	}
	return randomFactor(rows, cfg.Rank, scale, g), randomFactor(cols, cfg.Rank, scale, g)
}

func validate(obs []Entry, rows, cols int, cfg Config) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("mc: non-positive shape %dx%d", rows, cols)
	}
	if cfg.Rank <= 0 {
		return fmt.Errorf("mc: rank must be positive, got %d", cfg.Rank)
	}
	if cfg.Lambda <= 0 {
		return fmt.Errorf("mc: lambda must be positive for a well-posed problem, got %v", cfg.Lambda)
	}
	if !finite(cfg.Lambda) {
		return fmt.Errorf("mc: lambda must be finite, got %v", cfg.Lambda)
	}
	if !finite(cfg.Tol) {
		return fmt.Errorf("mc: tolerance must be finite, got %v", cfg.Tol)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("mc: max iterations must be positive, got %d", cfg.MaxIter)
	}
	if len(obs) == 0 {
		return errors.New("mc: no observations")
	}
	for i, e := range obs {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return fmt.Errorf("mc: observation (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
		if !finite(e.Val) {
			return fmt.Errorf("mc: observation %d at (%d,%d) has non-finite value %v", i, e.Row, e.Col, e.Val)
		}
	}
	return nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

func randomFactor(n, r int, scale float64, g *rng.RNG) *mat.Dense {
	m := mat.NewDense(n, r)
	d := m.Data()
	for i := range d {
		d[i] = g.Normal(0, scale)
	}
	return m
}

// warmFactor builds an n×r factor seeded from prior factors: overlapping
// rows are copied (the warm matrix is never aliased — ALS mutates its
// factors in place), rows beyond the warm shape are drawn from g like a
// cold start's.
func warmFactor(n, r int, scale float64, g *rng.RNG, warm *mat.Dense) *mat.Dense {
	m := mat.NewDense(n, r)
	copyRows := warm.Rows()
	if copyRows > n {
		copyRows = n
	}
	copy(m.Data()[:copyRows*r], warm.Data()[:copyRows*r])
	d := m.Data()[copyRows*r:]
	for i := range d {
		d[i] = g.Normal(0, scale)
	}
	return m
}

// alsScratch is the per-worker working storage of the ALS inner loop: the
// solutions of one wide solve and the mat.RidgeScratch buffers of the
// shared factors and the unique rows. One scratch per worker removes every
// per-row allocation from the sweep.
type alsScratch struct {
	x     []float64
	ridge *mat.RidgeScratch
}

func newALSScratch(rank int) *alsScratch {
	return &alsScratch{ridge: mat.NewRidgeScratch(rank)}
}

// alsPlan is the observation layout of one completion: the entries of every
// row of W and of H, grouped by observed pattern. It is a function of the
// observations alone, so Complete builds it once and every restart, sweep
// and wave reads it.
type alsPlan struct {
	w, h alsSide
	// slots[o] is the offset of observation o's value in the H side's
	// targets, hence of its residual in the buffer the H half-sweep fills.
	slots []int
}

// alsSide is the layout of one factor's rows. A row's pattern is the
// ordered sequence of opposite-factor indices its entries observe. Rows of
// one pattern have the same ridge features in the same order, hence the
// same Gram + λI and the same Cholesky factor down to the last bit.
type alsSide struct {
	rowSide bool      // entries index the opposite factor by Col (rows of W)
	groups  [][]Entry // groups[i]: the entries of factor row i, in input order
	// shared[i] is the index of row i's pattern in reps when at least two
	// rows observe that pattern, and -1 otherwise (a unique pattern, or no
	// entries at all).
	shared []int
	// reps[k] is the first row of shared pattern k.
	reps []int
	// items is the solve pass's work list, covering every row once.
	items []alsItem
	// An attempt builds nviews ridge feature views, one per entry of each
	// shared pattern and then of each unique row; patternView[k] is where
	// shared pattern k's start.
	patternView []int
	nviews      int
}

// alsItem is one unit of the solve pass: a chunk of up to wideChunk rows
// of one shared pattern, in ascending row order; up to mat.UniqueLanes
// rows whose patterns are unique, in ascending row order; or a single row
// with no entries.
type alsItem struct {
	rows []int
	// targets holds the rows' observed values. A chunk's are entry-major,
	// value q of rows[c] at targets[q*len(rows)+c], the layout
	// mat.RidgeSolveWideInto reads; unique rows' follow one another, each
	// row's in its entry order, as mat.RidgeSolveUniqueInto reads them.
	targets []float64
	// at is the offset of targets among all the side's targets.
	at int
	// view is where the rows' features start among the side's views: the
	// pattern's for a chunk, the first row's own for unique rows, which
	// follow one another like their targets.
	view int
}

// wideChunk bounds the rows of one solve item. One item is one wide solve,
// so larger chunks spread the call over more columns; but a pattern that
// most columns share (the exact plan's can hold thousands) must still
// split into enough items to keep every worker busy.
const wideChunk = 64

func newALSPlan(obs []Entry, rows, cols int) *alsPlan {
	byRow := make([][]Entry, rows)
	byCol := make([][]Entry, cols)
	slots := make([]int, len(obs))
	for o, e := range obs {
		byRow[e.Row] = append(byRow[e.Row], e)
		slots[o] = len(byCol[e.Col]) // o is entry slots[o] of its column
		byCol[e.Col] = append(byCol[e.Col], e)
	}
	p := &alsPlan{w: newALSSide(byRow, true), h: newALSSide(byCol, false), slots: slots}
	// Entry q of column rows[c] of a chunk sits at targets[q*m+c]; a
	// unique column's entries sit one after another.
	first, stride := make([]int, cols), make([]int, cols)
	for _, it := range p.h.items {
		at := it.at
		for c, col := range it.rows {
			if p.h.shared[col] >= 0 {
				first[col], stride[col] = it.at+c, len(it.rows)
			} else {
				first[col], stride[col] = at, 1
				at += len(p.h.groups[col])
			}
		}
	}
	for o, e := range obs {
		slots[o] = first[e.Col] + slots[o]*stride[e.Col]
	}
	return p
}

// newALSSide groups rows by pattern. Only a pattern that at least two rows
// observe gets a shared factor: for a unique pattern, factoring apart from
// the solve would only add work.
func newALSSide(groups [][]Entry, rowSide bool) alsSide {
	side := alsSide{rowSide: rowSide, groups: groups, shared: make([]int, len(groups))}
	ids := make(map[string]int)
	var first, count []int
	var key []byte
	for i, entries := range groups {
		side.shared[i] = -1
		if len(entries) == 0 {
			continue
		}
		key = key[:0]
		for _, e := range entries {
			j := e.Row
			if rowSide {
				j = e.Col
			}
			key = binary.LittleEndian.AppendUint32(key, uint32(j))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = len(count)
			ids[string(key)] = id
			first = append(first, i)
			count = append(count, 0)
		}
		count[id]++
		side.shared[i] = id
	}
	rep := make([]int, len(count))
	for id, n := range count {
		rep[id] = -1
		if n >= 2 {
			rep[id] = len(side.reps)
			side.reps = append(side.reps, first[id])
		}
	}
	members := make([][]int, len(side.reps))
	for i, id := range side.shared {
		if id >= 0 {
			side.shared[i] = rep[id]
		}
		if k := side.shared[i]; k >= 0 {
			members[k] = append(members[k], i)
		}
	}
	// Every item's rows are a sub-slice of order, which holds each row
	// once, and its targets a sub-slice of values, which holds each
	// observed value once.
	order := make([]int, 0, len(groups))
	nobs := 0
	for _, entries := range groups {
		nobs += len(entries)
	}
	values := make([]float64, 0, nobs)
	// Items follow their first rows, so the heavy ones stay spread over
	// the list as the rows are. Unique rows go in groups of consecutive
	// unique rows.
	var unique []int
	for i, k := range side.shared {
		if k < 0 && len(groups[i]) > 0 {
			unique = append(unique, i)
		}
	}
	next := 0 // the first unique row not yet in an item
	for i, k := range side.shared {
		switch {
		case k < 0 && len(groups[i]) == 0:
			order = append(order, i)
			side.items = append(side.items, alsItem{rows: order[len(order)-1:], at: len(values)})
		case k < 0 && next < len(unique) && unique[next] == i:
			w := min(len(unique)-next, mat.UniqueLanes)
			at := len(values)
			order = append(order, unique[next:next+w]...)
			for _, row := range unique[next : next+w] {
				for _, e := range groups[row] {
					values = append(values, e.Val)
				}
			}
			side.items = append(side.items, alsItem{rows: order[len(order)-w:], targets: values[at:], at: at})
			next += w
		case k >= 0 && side.reps[k] == i:
			n := len(groups[i])
			for rows := members[k]; len(rows) > 0; {
				w := min(len(rows), wideChunk)
				order = append(order, rows[:w]...)
				for q := 0; q < n; q++ {
					for _, row := range rows[:w] {
						values = append(values, groups[row][q].Val)
					}
				}
				side.items = append(side.items, alsItem{rows: order[len(order)-w:], targets: values[len(values)-n*w:], at: len(values) - n*w})
				rows = rows[w:]
			}
		}
	}
	for _, i := range side.reps {
		side.patternView = append(side.patternView, side.nviews)
		side.nviews += len(groups[i])
	}
	for n := range side.items {
		it := &side.items[n]
		if k := side.shared[it.rows[0]]; k >= 0 {
			it.view = side.patternView[k]
		} else {
			it.view = side.nviews
			side.nviews += len(it.targets)
		}
	}
	return side
}

func completeALS(plan *alsPlan, w, h *mat.Dense, cfg Config, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scratches := make([]*alsScratch, workers)
	for i := range scratches {
		scratches[i] = newALSScratch(cfg.Rank)
	}
	wFactors := sharedFactors(len(plan.w.reps), cfg.Rank)
	hFactors := sharedFactors(len(plan.h.reps), cfg.Rank)
	// The factors' backing arrays stay put for the whole attempt, so the
	// feature views into them are built once.
	wViews := plan.w.views(h)
	hViews := plan.h.views(w)
	resid := make([]float64, len(plan.slots))

	prev := math.Inf(1)
	var obj, rmse float64
	iters := 0
	for it := 0; it < cfg.MaxIter; it++ {
		iters = it + 1
		// Update each row of W against fixed H, then each row of H against
		// fixed W. Within one half-sweep every row update reads only the
		// fixed opposite factor and writes its own disjoint row slice, so
		// the rows can be solved on any worker in any order without
		// changing a single bit of the result. The H half-sweep also
		// writes the residual of every observation, which the objective
		// sums.
		if err := plan.w.update(wViews, w, wFactors, cfg, workers, scratches, nil); err != nil {
			return nil, err
		}
		if err := plan.h.update(hViews, h, hFactors, cfg, workers, scratches, resid); err != nil {
			return nil, err
		}
		// The last iteration's objective is the result's: the factors do
		// not change after it.
		obj, rmse = plan.objective(resid, w, h, cfg.Lambda)
		if !math.IsInf(prev, 1) && prev-obj <= cfg.Tol*math.Max(1, math.Abs(prev)) {
			break
		}
		prev = obj
	}
	return &Result{W: w, H: h, Objective: obj, Iterations: iters, TrainRMSE: rmse}, nil
}

// objective is the objective function over the residuals the last H
// half-sweep wrote: their squares summed in observation order, as
// recomputing every prediction from the factors would sum them, plus the
// penalty λ(‖W‖²+‖H‖²) with each norm squared as FrobeniusNorm sums it,
// so both give the same bits. The three sums are independent serial
// chains, so they run side by side, each in its own order: the loops walk
// one index while all three, then two, then one of the chains have an
// entry there, and no loop tests which chain has one. The sweep stores
// residuals, not their squares, so that the squaring is this same
// statement: where the compiler fuses sse += d * d into one multiply-add,
// it fuses it in both.
func (p *alsPlan) objective(resid []float64, w, h *mat.Dense, lambda float64) (obj, rmse float64) {
	slots, wd, hd := p.slots, w.Data(), h.Data()
	var sse, sw, sh float64
	i := 0
	for ; i < len(slots) && i < len(wd) && i < len(hd); i++ {
		d := resid[slots[i]]
		sse += d * d
		sw += wd[i] * wd[i]
		sh += hd[i] * hd[i]
	}
	for ; i < len(slots) && i < len(hd); i++ {
		d := resid[slots[i]]
		sse += d * d
		sh += hd[i] * hd[i]
	}
	for ; i < len(slots) && i < len(wd); i++ {
		d := resid[slots[i]]
		sse += d * d
		sw += wd[i] * wd[i]
	}
	for ; i < len(wd) && i < len(hd); i++ {
		sw += wd[i] * wd[i]
		sh += hd[i] * hd[i]
	}
	for ; i < len(slots); i++ {
		d := resid[slots[i]]
		sse += d * d
	}
	for ; i < len(wd); i++ {
		sw += wd[i] * wd[i]
	}
	for ; i < len(hd); i++ {
		sh += hd[i] * hd[i]
	}
	fw, fh := math.Sqrt(sw), math.Sqrt(sh)
	return sse + lambda*(fw*fw+fh*fh), math.Sqrt(sse / float64(len(slots)))
}

// sharedFactors allocates the Cholesky factors of n shared patterns, one
// rank×rank matrix each over a single backing array.
func sharedFactors(n, rank int) []*mat.Dense {
	data := make([]float64, n*rank*rank)
	out := make([]*mat.Dense, n)
	for k := range out {
		out[k] = mat.NewDenseData(rank, rank, data[k*rank*rank:(k+1)*rank*rank])
	}
	return out
}

// views points the side's ridge features into opposite's backing array,
// in the order patternView and the items' view offsets index. Every view
// has the rank's length, which mat checks here once for the attempt.
func (s *alsSide) views(opposite *mat.Dense) mat.FeatureRows {
	r := opposite.Cols()
	od := opposite.Data()
	views := make([][]float64, 0, s.nviews)
	add := func(entries []Entry) {
		for _, e := range entries {
			j := e.Row
			if s.rowSide {
				j = e.Col
			}
			views = append(views, od[j*r:j*r+r])
		}
	}
	for _, i := range s.reps {
		add(s.groups[i])
	}
	for _, it := range s.items {
		if s.shared[it.rows[0]] < 0 {
			for _, i := range it.rows {
				add(s.groups[i])
			}
		}
	}
	return mat.NewFeatureRows(views, r)
}

// features returns item it's ridge features among the side's views: its
// pattern's for a chunk, every row's in turn for unique rows.
func (s *alsSide) features(views mat.FeatureRows, it alsItem) mat.FeatureRows {
	n := len(it.targets)
	if s.shared[it.rows[0]] >= 0 {
		n = len(s.groups[it.rows[0]])
	}
	return views.Slice(it.view, n)
}

// update solves the ridge sub-problem of every row of target against the
// fixed opposite factor that views point into, in two passes over workers
// goroutines. The factor pass forms Gram + λI and its Cholesky factor once
// per shared pattern. The solve pass works through the items: a chunk of a
// shared pattern solves all its rows against that factor in one wide
// kernel call, reading the targets the plan laid out, and unique rows run
// one unique kernel call. Both store straight into the rows of target.
// All paths accumulate the same products in the same order, so the factors
// are bit-identical to one fused solve per row. A non-nil resid receives
// the residual of every entry at its target's offset, from the new rows:
// the residual kernel reads a chunk's solutions where the wide solve left
// them, and a unique row's from the row.
func (s *alsSide) update(views mat.FeatureRows, target *mat.Dense, factors []*mat.Dense, cfg Config, workers int, scratches []*alsScratch, resid []float64) error {
	err := parallelFor(len(s.reps), workers, func(wk, k int) error {
		n := len(s.groups[s.reps[k]])
		if err := mat.RidgeFactorInto(views.Slice(s.patternView[k], n), effLambda(cfg, n), factors[k], scratches[wk].ridge); err != nil {
			return fmt.Errorf("mc: ridge sub-problem: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r := target.Cols()
	return parallelFor(len(s.items), workers, func(wk, n int) error {
		it, sc := s.items[n], scratches[wk]
		features := s.features(views, it)
		m := len(it.rows)
		if k := s.shared[it.rows[0]]; k >= 0 {
			if cap(sc.x) < r*m {
				sc.x = make([]float64, r*m)
			}
			x := sc.x[:r*m]
			mat.RidgeSolveWideInto(features, it.targets, factors[k], x, target, it.rows)
			if resid != nil {
				mat.RidgeResidualsWideInto(features, it.targets, x, m, resid[it.at:][:len(it.targets)])
			}
			return nil
		}
		if len(it.targets) == 0 {
			// No entries: the regularizer's minimizer.
			clear(target.Row(it.rows[0]))
			return nil
		}
		var counts [mat.UniqueLanes]int
		var lambdas [mat.UniqueLanes]float64
		for c, i := range it.rows {
			counts[c] = len(s.groups[i])
			lambdas[c] = effLambda(cfg, counts[c])
		}
		if err := mat.RidgeSolveUniqueInto(features, it.targets, counts[:m], lambdas[:m], target, it.rows, sc.ridge); err != nil {
			return fmt.Errorf("mc: ridge sub-problem: %w", err)
		}
		if resid != nil {
			// One row's solution is its own entry-major layout.
			at := 0
			for c, i := range it.rows {
				q := counts[c]
				mat.RidgeResidualsWideInto(features.Slice(at, q), it.targets[at:at+q], target.Row(i), 1, resid[it.at+at:][:q])
				at += q
			}
		}
		return nil
	})
}

// parallelFor runs fn(wk, i) for every i in [0, n) on up to workers
// goroutines, wk being the index of the goroutine (and of its scratch).
// Items are claimed in index order; it returns the error of the lowest
// worker that failed.
func parallelFor(n, workers int, fn func(wk, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(wk, i); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// effLambda returns the regularization weight for a factor row with nobs
// observations: constant under plain ALS, nobs-proportional under ALS-WR.
func effLambda(cfg Config, nobs int) float64 {
	if cfg.WeightedReg && nobs > 0 {
		return cfg.Lambda * float64(nobs)
	}
	return cfg.Lambda
}

// RelativeError returns ‖U − WHᵀ‖_F / ‖U‖_F against a fully known matrix u
// (the quantity plotted in Fig. 3).
func RelativeError(u *mat.Dense, res *Result, colOfMask func(col int) (int, bool)) float64 {
	rows, cols := u.Dims()
	var num, den float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := u.At(i, j)
			den += v * v
			var pred float64
			if fc, ok := colOfMask(j); ok {
				pred = res.Predict(i, fc)
			}
			d := v - pred
			num += d * d
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num) / math.Sqrt(den)
}
