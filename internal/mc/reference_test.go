package mc

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// referenceComplete is Complete with nothing shared: restarts run one
// after another, each builds its own observation lists, and every factor
// row of every half-sweep is one referenceRidge solve. It is the oracle the
// shared-factor block sweep must match bit for bit. It calls no kernel of
// the sweep: the ridge solve and the objective are written out here.
func referenceComplete(obs []Entry, rows, cols int, cfg Config) (*Result, error) {
	if err := validate(obs, rows, cols, cfg); err != nil {
		return nil, err
	}
	var best *Result
	for attempt := 0; attempt < max(cfg.Restarts, 1); attempt++ {
		var warm *Warm
		if attempt == 0 {
			warm = cfg.Warm
		}
		w, h := initFactors(rows, cols, cfg, cfg.Seed+int64(attempt), warm)
		res, err := referenceALS(obs, w, h, cfg)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Objective < best.Objective {
			best = res
		}
	}
	return best, nil
}

func referenceALS(obs []Entry, w, h *mat.Dense, cfg Config) (*Result, error) {
	byRow := make([][]Entry, w.Rows())
	byCol := make([][]Entry, h.Rows())
	for _, e := range obs {
		byRow[e.Row] = append(byRow[e.Row], e)
		byCol[e.Col] = append(byCol[e.Col], e)
	}
	solve := func(groups [][]Entry, opposite, target *mat.Dense, rowSide bool) error {
		for i, entries := range groups {
			dst := target.Row(i)
			if len(entries) == 0 {
				for k := range dst {
					dst[k] = 0
				}
				continue
			}
			features := make([][]float64, len(entries))
			targets := make([]float64, len(entries))
			for n, e := range entries {
				j := e.Row
				if rowSide {
					j = e.Col
				}
				features[n] = opposite.Row(j)
				targets[n] = e.Val
			}
			lambda := cfg.Lambda
			if cfg.WeightedReg {
				lambda *= float64(len(entries))
			}
			x, err := referenceRidge(features, targets, lambda)
			if err != nil {
				return err
			}
			copy(dst, x)
		}
		return nil
	}
	prev := math.Inf(1)
	iters := 0
	for it := 0; it < cfg.MaxIter; it++ {
		iters = it + 1
		if err := solve(byRow, h, w, true); err != nil {
			return nil, err
		}
		if err := solve(byCol, w, h, false); err != nil {
			return nil, err
		}
		obj, _ := referenceObjective(obs, w, h, cfg.Lambda)
		if !math.IsInf(prev, 1) && prev-obj <= cfg.Tol*math.Max(1, math.Abs(prev)) {
			break
		}
		prev = obj
	}
	obj, rmse := referenceObjective(obs, w, h, cfg.Lambda)
	return &Result{W: w, H: h, Objective: obj, Iterations: iters, TrainRMSE: rmse}, nil
}

var errReferenceNotPD = errors.New("reference ridge: Gram matrix not positive definite")

// referenceRidge solves (AᵀA + λI) x = Aᵀ b for the rows A of features the
// textbook way: form the lower triangle of the Gram matrix and the
// right-hand side one feature row at a time, add λ to the diagonal, take
// the Cholesky factor column by column, then substitute forward and back.
// Every sum runs in ascending index order, one term at a time.
func referenceRidge(features [][]float64, targets []float64, lambda float64) ([]float64, error) {
	r := len(features[0])
	gram := make([][]float64, r)
	l := make([][]float64, r)
	for i := range gram {
		gram[i] = make([]float64, r)
		l[i] = make([]float64, r)
	}
	rhs := make([]float64, r)
	for n, f := range features {
		for i := 0; i < r; i++ {
			for j := 0; j <= i; j++ {
				gram[i][j] += f[i] * f[j]
			}
			rhs[i] += f[i] * targets[n]
		}
	}
	for i := 0; i < r; i++ {
		gram[i][i] += lambda
	}
	for j := 0; j < r; j++ {
		d := gram[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, errReferenceNotPD
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < r; i++ {
			s := gram[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	y := make([]float64, r)
	for i := 0; i < r; i++ {
		s := rhs[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
	}
	x := make([]float64, r)
	for i := r - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < r; k++ {
			s -= l[k][i] * x[k]
		}
		x[i] = s / l[i][i]
	}
	return x, nil
}

// referenceObjective is the regularized objective and observed RMSE
// computed entry by entry: each prediction and each squared norm is summed
// in ascending index order.
func referenceObjective(obs []Entry, w, h *mat.Dense, lambda float64) (obj, rmse float64) {
	var sse float64
	for _, e := range obs {
		var p float64
		for k := 0; k < w.Cols(); k++ {
			p += w.At(e.Row, k) * h.At(e.Col, k)
		}
		d := e.Val - p
		sse += d * d
	}
	sq := func(m *mat.Dense) float64 {
		var s float64
		for _, v := range m.Data() {
			s += v * v
		}
		n := math.Sqrt(s)
		return n * n
	}
	return sse + lambda*(sq(w)+sq(h)), math.Sqrt(sse / float64(len(obs)))
}

// objective returns the full regularized objective and the observed RMSE,
// recomputing every prediction from the factors. It reads their backing
// arrays directly; each prediction sums its products in mat.Dot's order,
// and the penalty is the one the solver adds. It is the oracle of the sum
// over the residuals a sweep stored.
func objective(obs []Entry, w, h *mat.Dense, lambda float64) (obj, rmse float64) {
	r := w.Cols()
	wd, hd := w.Data(), h.Data()
	var sse float64
	for _, e := range obs {
		wr := wd[e.Row*r : e.Row*r+r]
		hr := hd[e.Col*r : e.Col*r+r]
		var p float64
		for k, v := range wr {
			p += v * hr[k]
		}
		d := e.Val - p
		sse += d * d
	}
	return penalized(sse, len(obs), w, h, lambda)
}

// penalized adds the penalty λ(‖W‖²+‖H‖²), each norm from FrobeniusNorm,
// to the squared error sse of n observations and returns the objective
// with their RMSE.
func penalized(sse float64, n int, w, h *mat.Dense, lambda float64) (obj, rmse float64) {
	fw := w.FrobeniusNorm()
	fh := h.FrobeniusNorm()
	return sse + lambda*(fw*fw+fh*fh), math.Sqrt(sse / float64(n))
}

// sameBits reports the first difference between two results, comparing
// every float by its bit pattern.
func sameBits(got, want *Result) error {
	for _, m := range []struct {
		name      string
		got, want *mat.Dense
	}{{"W", got.W, want.W}, {"H", got.H, want.H}} {
		g, w := m.got.Data(), m.want.Data()
		if len(g) != len(w) {
			return fmt.Errorf("%s has %d values, want %d", m.name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("%s[%d] = %v, want %v", m.name, i, g[i], w[i])
			}
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Errorf("objective %v, want %v", got.Objective, want.Objective)
	}
	if got.Iterations != want.Iterations {
		return fmt.Errorf("%d iterations, want %d", got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.TrainRMSE) != math.Float64bits(want.TrainRMSE) {
		return fmt.Errorf("train RMSE %v, want %v", got.TrainRMSE, want.TrainRMSE)
	}
	return nil
}

// exactPlanEntries samples a random rank-`rank` matrix on an exact plan's
// observation pattern: columns are the nonempty subsets S of n clients and
// round t observes exactly the S ⊆ Iₜ, for selected sets Iₜ that repeat
// across rounds. Rows with one selected set share a pattern, and so do the
// subsets observed in the same rounds.
func exactPlanEntries(n, rounds, rank int, seed int64) (obs []Entry, cols int) {
	g := rng.New(seed)
	cols = 1<<n - 1
	w := randomFactor(rounds, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	selected := []int{0b00111, 0b11100, 0b01011, 0b11111}
	for t := 0; t < rounds; t++ {
		it := selected[g.Intn(len(selected))]
		for s := 1; s <= cols; s++ {
			if s&it == s {
				obs = append(obs, Entry{Row: t, Col: s - 1, Val: mat.Dot(w.Row(t), h.Row(s-1))})
			}
		}
	}
	return obs, cols
}

// remainderEntries samples a random rank-`rank` matrix on 6 rows and 27
// columns whose shared column patterns have 2, 3, 4, 5 and 9 members, so
// the H half-sweep solves blocks of four and remainders of one, two and
// three rows; three columns have a unique pattern and one has no entries.
// Columns are interleaved in a seeded order. transposed swaps rows and
// columns, putting the same patterns on the W side.
func remainderEntries(rank int, seed int64, transposed bool) (obs []Entry, rows, cols int) {
	g := rng.New(seed)
	rows, cols = 6, 27
	w := randomFactor(rows, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	var patterns [][]int
	for _, p := range []struct {
		rows    []int
		members int
	}{
		{[]int{0, 1, 2}, 2}, {[]int{1, 3, 5}, 3}, {[]int{0, 2, 4, 5}, 4},
		{[]int{2, 3}, 5}, {[]int{0, 1, 2, 3, 4, 5}, 9},
		{[]int{4}, 1}, {[]int{0, 5}, 1}, {[]int{1, 2, 3}, 1}, {nil, 1},
	} {
		for m := 0; m < p.members; m++ {
			patterns = append(patterns, p.rows)
		}
	}
	for j, k := range g.Perm(cols) {
		for _, i := range patterns[k] {
			e := Entry{Row: i, Col: j, Val: mat.Dot(w.Row(i), h.Row(j))}
			if transposed {
				e.Row, e.Col = e.Col, e.Row
			}
			obs = append(obs, e)
		}
	}
	if transposed {
		rows, cols = cols, rows
	}
	return obs, rows, cols
}

// chunkedEntries samples a random rank-`rank` matrix on 4 rows and 300
// columns. Column j observes row j mod 4, and every fifteenth column also
// the next row, so each of the four one-entry patterns has 70 members and
// splits into a full chunk of wideChunk columns and a remainder, while the
// four two-entry patterns have 5 members each. The rows of W see 80
// entries each.
func chunkedEntries(rank int, seed int64) (obs []Entry, rows, cols int) {
	g := rng.New(seed)
	rows, cols = 4, 300
	w := randomFactor(rows, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	for j := 0; j < cols; j++ {
		observed := []int{j % rows}
		if j%15 == 0 {
			observed = append(observed, (j+1)%rows)
		}
		for _, i := range observed {
			obs = append(obs, Entry{Row: i, Col: j, Val: mat.Dot(w.Row(i), h.Row(j))})
		}
	}
	return obs, rows, cols
}

// kernelBodies runs f with the mat package's vector kernel bodies off, then
// on (a host without them runs the portable bodies twice), and restores
// the setting.
func kernelBodies(f func(simd bool)) {
	defer mat.SetSIMD(mat.SetSIMD(false))
	for _, simd := range []bool{false, true} {
		mat.SetSIMD(simd)
		f(simd)
	}
}

// TestSharedFactorMatchesPerRowRidge pins the shared-factor sweep to the
// reference ALS bit for bit, on shapes with and without repeated patterns,
// under both regularization schemes, at several worker counts, cold and
// warm-started, on both kernel bodies.
func TestSharedFactorMatchesPerRowRidge(t *testing.T) {
	exact, exactCols := exactPlanEntries(5, 12, 3, 3)
	// The same cells in a seeded order: rows with one set of entries now
	// see them in different orders, so their Gram sums round differently
	// and must not share a factor.
	shuffled := make([]Entry, len(exact))
	for i, j := range rng.New(4).Perm(len(exact)) {
		shuffled[i] = exact[j]
	}
	remainders, remRows, remCols := remainderEntries(3, 5, false)
	remaindersT, remRowsT, remColsT := remainderEntries(3, 5, true)
	chunked, chunkedRows, chunkedCols := chunkedEntries(3, 6)
	fixtures := []struct {
		name       string
		obs        []Entry
		rows, cols int
		rank       int
		shared     bool // whether some pattern repeats, so a factor is shared
	}{
		{"dense", synthEntries(20, 60, 3, 0.3, 1), 20, 60, 3, false},
		{"sparse", synthEntries(12, 150, 3, 0.04, 2), 12, 150, 3, true},
		{"patterned", patternedEntries(5, 42), patternedRows, patternedCols, 5, true},
		{"exact-plan", exact, 12, exactCols, 3, true},
		{"exact-plan-shuffled", shuffled, 12, exactCols, 3, false},
		{"remainders", remainders, remRows, remCols, 3, true},
		{"remainders-transposed", remaindersT, remRowsT, remColsT, 3, true},
		{"chunked", chunked, chunkedRows, chunkedCols, 3, true},
	}
	for _, fx := range fixtures {
		plan := newALSPlan(fx.obs, fx.rows, fx.cols)
		if got := len(plan.w.reps)+len(plan.h.reps) > 0; got != fx.shared {
			t.Fatalf("%s: shares a factor = %v, want %v", fx.name, got, fx.shared)
		}
		for _, weighted := range []bool{false, true} {
			cfg := DefaultConfig(fx.rank)
			cfg.MaxIter = 20
			cfg.WeightedReg = weighted
			cold, err := referenceComplete(fx.obs, fx.rows, fx.cols, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warmCfg := cfg
			warmCfg.Seed = 99
			warmCfg.Warm = &Warm{W: cold.W, H: cold.H}
			warm, err := referenceComplete(fx.obs, fx.rows, fx.cols, warmCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, start := range []struct {
				name string
				cfg  Config
				want *Result
			}{{"cold", cfg, cold}, {"warm", warmCfg, warm}} {
				for _, workers := range []int{1, 2, 4} {
					c := start.cfg
					c.Workers = workers
					kernelBodies(func(simd bool) {
						got, err := Complete(fx.obs, fx.rows, fx.cols, c)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameBits(got, start.want); err != nil {
							t.Errorf("%s weighted=%v %s workers=%d simd=%v: %v", fx.name, weighted, start.name, workers, simd, err)
						}
					})
				}
			}
		}
	}
}

// TestALSPlanItems pins the solve pass's work list: every row of W and of
// H is in exactly one item; an item holds ascending rows of one shared
// pattern, up to mat.UniqueLanes ascending rows of unique patterns, or a
// single row with no entries; each shared pattern splits into
// ⌈members/wideChunk⌉ chunks, all full but the last, and the unique rows
// into groups that are all full but the last. A chunk's targets are its
// rows' values laid out entry-major, and unique rows' follow one another.
// On the patterned fixture the H side has Σ⌈members/wideChunk⌉ items over
// its 33 column patterns, counted here from the raw observations.
func TestALSPlanItems(t *testing.T) {
	remainders, remRows, remCols := remainderEntries(3, 5, false)
	exact, exactCols := exactPlanEntries(5, 12, 3, 3)
	chunked, chunkedRows, chunkedCols := chunkedEntries(3, 6)
	fixtures := []struct {
		name       string
		obs        []Entry
		rows, cols int
	}{
		{"patterned", patternedEntries(5, 42), patternedRows, patternedCols},
		{"remainders", remainders, remRows, remCols},
		{"exact-plan", exact, 12, exactCols},
		{"sparse", synthEntries(12, 150, 3, 0.04, 2), 12, 150},
		{"chunked", chunked, chunkedRows, chunkedCols},
	}
	for _, fx := range fixtures {
		plan := newALSPlan(fx.obs, fx.rows, fx.cols)
		for _, side := range []struct {
			name string
			s    alsSide
		}{{"W", plan.w}, {"H", plan.h}} {
			s := side.s
			members := make([]int, len(s.reps))
			for _, k := range s.shared {
				if k >= 0 {
					members[k]++
				}
			}
			seen := make([]int, len(s.groups))
			chunks := make([]int, len(s.reps))
			unique, groups := 0, 0
			for i, k := range s.shared {
				if k < 0 && len(s.groups[i]) > 0 {
					unique++
				}
			}
			for n, it := range s.items {
				rows := it.rows
				if len(rows) == 0 {
					t.Fatalf("%s %s item %d is empty", fx.name, side.name, n)
				}
				k := s.shared[rows[0]]
				entries := len(s.groups[rows[0]])
				if len(rows) > wideChunk || (k < 0 && len(rows) > mat.UniqueLanes) || (entries == 0 && len(rows) != 1) {
					t.Fatalf("%s %s item %d: rows %v of pattern %d", fx.name, side.name, n, rows, k)
				}
				at := 0
				for c, i := range rows {
					seen[i]++
					if s.shared[i] != k || (c > 0 && i <= rows[c-1]) || (len(s.groups[i]) == 0) != (entries == 0) {
						t.Fatalf("%s %s item %d: rows %v are not ascending rows of pattern %d", fx.name, side.name, n, rows, k)
					}
					for q, e := range s.groups[i] {
						want := q*len(rows) + c
						if k < 0 {
							want = at + q
						}
						if want >= len(it.targets) || it.targets[want] != e.Val {
							t.Fatalf("%s %s item %d: target %d of row %d is not %v", fx.name, side.name, n, q, i, e.Val)
						}
					}
					at += len(s.groups[i])
				}
				if len(it.targets) != at {
					t.Fatalf("%s %s item %d: %d targets for rows of %d entries", fx.name, side.name, n, len(it.targets), at)
				}
				if k < 0 && entries > 0 {
					groups++
					if len(rows) < mat.UniqueLanes && groups != (unique+mat.UniqueLanes-1)/mat.UniqueLanes {
						t.Fatalf("%s %s item %d: a group of %d unique rows before the last group", fx.name, side.name, n, len(rows))
					}
				}
				if k >= 0 {
					chunks[k]++
					if len(rows) < wideChunk && chunks[k] != (members[k]+wideChunk-1)/wideChunk {
						t.Fatalf("%s %s item %d: a chunk of %d rows before the last chunk of pattern %d", fx.name, side.name, n, len(rows), k)
					}
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%s %s: row %d is in %d items", fx.name, side.name, i, c)
				}
			}
			for k := range chunks {
				if want := (members[k] + wideChunk - 1) / wideChunk; chunks[k] != want {
					t.Fatalf("%s %s: pattern %d of %d rows has %d chunks, want %d", fx.name, side.name, k, members[k], chunks[k], want)
				}
			}
			if want := (unique + mat.UniqueLanes - 1) / mat.UniqueLanes; groups != want {
				t.Fatalf("%s %s: %d unique rows in %d groups, want %d", fx.name, side.name, unique, groups, want)
			}
		}
	}

	obs := patternedEntries(5, 42)
	byCol := map[int][]int{}
	for _, e := range obs {
		byCol[e.Col] = append(byCol[e.Col], e.Row)
	}
	members := map[string]int{}
	for _, rows := range byCol {
		members[fmt.Sprint(rows)]++
	}
	want := 0
	for _, n := range members {
		want += (n + wideChunk - 1) / wideChunk
	}
	plan := newALSPlan(obs, patternedRows, patternedCols)
	if len(members) != 33 || len(plan.h.items) != want {
		t.Fatalf("patterned H side: %d items over %d patterns, want %d over 33", len(plan.h.items), len(members), want)
	}
	// The chunked fixture's one-entry patterns are the ones that split.
	plan = newALSPlan(chunked, chunkedRows, chunkedCols)
	split := 0
	for _, it := range plan.h.items {
		if len(it.rows) == wideChunk {
			split++
		}
	}
	if split != chunkedRows {
		t.Fatalf("chunked H side: %d full chunks, want one per row pattern (%d)", split, chunkedRows)
	}
}

// decodeCompleteInput turns fuzz bytes into a small completion problem.
// Four header bytes give the shape (1–6 rows, 1–8 columns), the rank
// (1–8, so it can exceed both dimensions), regularization and worker
// count; then every three bytes are one entry. A row or column byte can
// land one past the shape, and the value bytes 253–255 decode to −Inf,
// +Inf and NaN, so the decoder reaches every validation error.
func decodeCompleteInput(data []byte) (obs []Entry, rows, cols int, cfg Config, ok bool) {
	if len(data) < 4 {
		return nil, 0, 0, Config{}, false
	}
	rows = 1 + int(data[0]%6)
	cols = 1 + int(data[1]%8)
	cfg = DefaultConfig(1 + int(data[2]%8))
	cfg.MaxIter = 8
	cfg.WeightedReg = data[3]&1 == 1
	cfg.Workers = 1 + int(data[3]>>1)%3
	for b := data[4:]; len(b) >= 3; b = b[3:] {
		var v float64
		switch b[2] {
		case 255:
			v = math.NaN()
		case 254:
			v = math.Inf(1)
		case 253:
			v = math.Inf(-1)
		default:
			v = float64(int(b[2])-126) / 16
		}
		obs = append(obs, Entry{Row: int(b[0]) % (rows + 1), Col: int(b[1]) % (cols + 1), Val: v})
	}
	return obs, rows, cols, cfg, true
}

// FuzzComplete drives Complete with degenerate problems: non-finite
// values, out-of-range cells, empty rows and columns, duplicate cells and
// ranks above the matrix dimensions. It must never panic, and it must
// either fail cleanly where the reference ALS fails or return finite
// factors bit-equal to the reference's. ErrCollapsed is a clean rejection
// of a fit the reference also returns: it is accepted only when that fit's
// predictions on the observed cells have an RMS below 1e-3 of theirs.
// Complete runs on both kernel bodies against one reference result.
func FuzzComplete(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 0, 0, 142, 1, 1, 130, 2, 2, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, rows, cols, cfg, ok := decodeCompleteInput(data)
		if !ok {
			return
		}
		want, wantErr := referenceComplete(obs, rows, cols, cfg)
		kernelBodies(func(simd bool) {
			got, err := Complete(obs, rows, cols, cfg)
			if err := checkFuzzComplete(obs, got, err, want, wantErr); err != nil {
				t.Fatalf("simd=%v: %v", simd, err)
			}
		})
	})
}

// checkFuzzComplete reports how Complete's result got, err departs from
// the reference's want, wantErr for FuzzComplete.
func checkFuzzComplete(obs []Entry, got *Result, err error, want *Result, wantErr error) error {
	if errors.Is(err, ErrCollapsed) && wantErr == nil {
		var observed, fitted float64
		for _, e := range obs {
			var p float64
			for k, v := range want.W.Row(e.Row) {
				p += v * want.H.Row(e.Col)[k]
			}
			observed += e.Val * e.Val
			fitted += p * p
		}
		if !(observed > 0 && math.Sqrt(fitted) < 1e-3*math.Sqrt(observed)) {
			return fmt.Errorf("ErrCollapsed on a fit with observed sum of squares %v and fitted %v", observed, fitted)
		}
		return nil
	}
	if (err == nil) != (wantErr == nil) {
		return fmt.Errorf("Complete error %v, reference error %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	for _, v := range append(append([]float64(nil), got.W.Data()...), got.H.Data()...) {
		if !finite(v) {
			return fmt.Errorf("non-finite factor value %v with a nil error", v)
		}
	}
	return sameBits(got, want)
}
