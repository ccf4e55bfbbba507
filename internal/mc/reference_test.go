package mc

import (
	"fmt"
	"math"
	"testing"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// referenceComplete is Complete with nothing shared: restarts run one
// after another, each builds its own observation lists, and every factor
// row of every half-sweep is one mat.RidgeSolve. It is the oracle the
// shared-factor sweep must match bit for bit.
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
		w, h, _ := initFactors(rows, cols, cfg, cfg.Seed+int64(attempt), warm)
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
			x, err := mat.RidgeSolve(features, targets, lambda)
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
		obj, _ := objective(obs, w, h, cfg.Lambda)
		if !math.IsInf(prev, 1) && prev-obj <= cfg.Tol*math.Max(1, math.Abs(prev)) {
			break
		}
		prev = obj
	}
	obj, rmse := objective(obs, w, h, cfg.Lambda)
	return &Result{W: w, H: h, Objective: obj, Iterations: iters, TrainRMSE: rmse}, nil
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

// TestSharedFactorMatchesPerRowRidge pins the shared-factor sweep to the
// reference ALS bit for bit, on shapes with and without repeated patterns,
// under both regularization schemes, at several worker counts, cold and
// warm-started.
func TestSharedFactorMatchesPerRowRidge(t *testing.T) {
	exact, exactCols := exactPlanEntries(5, 12, 3, 3)
	// The same cells in a seeded order: rows with one set of entries now
	// see them in different orders, so their Gram sums round differently
	// and must not share a factor.
	shuffled := make([]Entry, len(exact))
	for i, j := range rng.New(4).Perm(len(exact)) {
		shuffled[i] = exact[j]
	}
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
					got, err := Complete(fx.obs, fx.rows, fx.cols, c)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, start.want); err != nil {
						t.Errorf("%s weighted=%v %s workers=%d: %v", fx.name, weighted, start.name, workers, err)
					}
				}
			}
		}
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
// factors bit-equal to the reference's.
func FuzzComplete(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 0, 0, 142, 1, 1, 130, 2, 2, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, rows, cols, cfg, ok := decodeCompleteInput(data)
		if !ok {
			return
		}
		got, err := Complete(obs, rows, cols, cfg)
		want, wantErr := referenceComplete(obs, rows, cols, cfg)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Complete error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for _, v := range append(append([]float64(nil), got.W.Data()...), got.H.Data()...) {
			if !finite(v) {
				t.Fatalf("non-finite factor value %v with a nil error", v)
			}
		}
		if err := sameBits(got, want); err != nil {
			t.Fatal(err)
		}
	})
}
