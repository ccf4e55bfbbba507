package mc

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// lowRankTruth builds an exactly rank-r matrix W Hᵀ.
func lowRankTruth(rows, cols, rank int, seed int64) *mat.Dense {
	g := rng.New(seed)
	w := mat.NewDense(rows, rank)
	h := mat.NewDense(cols, rank)
	for _, m := range []*mat.Dense{w, h} {
		d := m.Data()
		for i := range d {
			d[i] = g.Normal(0, 1)
		}
	}
	return mat.MulT(w, h)
}

func sample(truth *mat.Dense, density float64, seed int64) []Entry {
	g := rng.New(seed)
	rows, cols := truth.Dims()
	var obs []Entry
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if g.Float64() < density {
				obs = append(obs, Entry{Row: i, Col: j, Val: truth.At(i, j)})
			}
		}
	}
	return obs
}

func relErr(truth *mat.Dense, res *Result) float64 {
	rows, cols := truth.Dims()
	var num, den float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			d := truth.At(i, j) - res.Predict(i, j)
			num += d * d
			den += truth.At(i, j) * truth.At(i, j)
		}
	}
	return math.Sqrt(num / den)
}

func TestALSRecoversLowRank(t *testing.T) {
	truth := lowRankTruth(30, 80, 3, 1)
	obs := sample(truth, 0.4, 2)
	cfg := DefaultConfig(3)
	cfg.WeightedReg = false
	cfg.Lambda = 1e-3
	res, err := Complete(obs, 30, 80, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(truth, res); e > 0.05 {
		t.Fatalf("ALS relative error %v, want < 0.05", e)
	}
}

func TestALSWeightedRegRecovers(t *testing.T) {
	truth := lowRankTruth(20, 50, 2, 5)
	obs := sample(truth, 0.5, 6)
	cfg := DefaultConfig(2) // WeightedReg is the default
	res, err := Complete(obs, 20, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(truth, res); e > 0.1 {
		t.Fatalf("ALS-WR relative error %v, want < 0.1", e)
	}
}

func TestTrainRMSEDecreasesWithRank(t *testing.T) {
	// Fitting with the true rank must beat rank 1 on the observed entries.
	truth := lowRankTruth(20, 40, 4, 7)
	obs := sample(truth, 0.6, 8)
	get := func(rank int) float64 {
		cfg := DefaultConfig(rank)
		cfg.Lambda = 1e-4
		cfg.WeightedReg = false
		res, err := Complete(obs, 20, 40, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainRMSE
	}
	if r1, r4 := get(1), get(4); r4 >= r1 {
		t.Fatalf("rank-4 RMSE %v should beat rank-1 %v on rank-4 truth", r4, r1)
	}
}

func TestObjectiveMonotone(t *testing.T) {
	// The final objective with more iterations never exceeds fewer.
	truth := lowRankTruth(15, 30, 2, 9)
	obs := sample(truth, 0.5, 10)
	run := func(iters int) float64 {
		cfg := DefaultConfig(2)
		cfg.MaxIter = iters
		cfg.Tol = 0 // force exactly iters sweeps
		res, err := Complete(obs, 15, 30, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Objective
	}
	if o5, o20 := run(5), run(20); o20 > o5+1e-9 {
		t.Fatalf("objective increased with iterations: %v → %v", o5, o20)
	}
}

func TestUnobservedRowZeroed(t *testing.T) {
	// A row with no observations must predict 0 everywhere (plain ALS).
	obs := []Entry{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2}}
	cfg := DefaultConfig(2)
	res, err := Complete(obs, 3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if p := res.Predict(2, j); p != 0 {
			t.Fatalf("unobserved row predicted %v, want 0", p)
		}
	}
}

func TestValidation(t *testing.T) {
	obs := []Entry{{Row: 0, Col: 0, Val: 1}}
	cases := []struct {
		name string
		obs  []Entry
		rows int
		cols int
		mut  func(*Config)
	}{
		{"no observations", nil, 2, 2, nil},
		{"zero rank", obs, 2, 2, func(c *Config) { c.Rank = 0 }},
		{"zero lambda", obs, 2, 2, func(c *Config) { c.Lambda = 0 }},
		{"zero iters", obs, 2, 2, func(c *Config) { c.MaxIter = 0 }},
		{"bad shape", obs, 0, 2, nil},
		{"out of range", []Entry{{Row: 5, Col: 0, Val: 1}}, 2, 2, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			if _, err := Complete(tc.obs, tc.rows, tc.cols, cfg); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

// TestCompleteRejectsNonFiniteInputs: a NaN or infinite value or
// parameter is a validation error that names the culprit, not a numerical
// failure deep in a solver or a silently non-finite fit.
func TestCompleteRejectsNonFiniteInputs(t *testing.T) {
	obs := func(v float64) []Entry {
		return []Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: v}}
	}
	cases := []struct {
		name string
		obs  []Entry
		mut  func(*Config)
		want string
	}{
		{"NaN value", obs(math.NaN()), nil, "observation 2 at (1,1) has non-finite value NaN"},
		{"+Inf value", obs(math.Inf(1)), nil, "observation 2 at (1,1) has non-finite value +Inf"},
		{"-Inf value", obs(math.Inf(-1)), nil, "observation 2 at (1,1) has non-finite value -Inf"},
		{"+Inf lambda", obs(3), func(c *Config) { c.Lambda = math.Inf(1) }, "lambda must be finite"},
		{"NaN lambda", obs(3), func(c *Config) { c.Lambda = math.NaN() }, "lambda must be finite"},
		{"NaN tolerance", obs(3), func(c *Config) { c.Tol = math.NaN() }, "tolerance must be finite"},
		{"-Inf tolerance", obs(3), func(c *Config) { c.Tol = math.Inf(-1) }, "tolerance must be finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := Complete(tc.obs, 2, 2, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	truth := lowRankTruth(10, 20, 2, 11)
	obs := sample(truth, 0.5, 12)
	cfg := DefaultConfig(2)
	a, err := Complete(obs, 10, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Complete(obs, 10, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(a, b); err != nil {
		t.Fatalf("completion must be deterministic in the seed: %v", err)
	}
}

func TestCompletedMatchesPredict(t *testing.T) {
	truth := lowRankTruth(8, 9, 2, 13)
	obs := sample(truth, 0.7, 14)
	res, err := Complete(obs, 8, 9, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Completed()
	for i := 0; i < 8; i++ {
		for j := 0; j < 9; j++ {
			if math.Abs(c.At(i, j)-res.Predict(i, j)) > 1e-12 {
				t.Fatal("Completed() and Predict() disagree")
			}
		}
	}
}

func TestRecoveryProperty(t *testing.T) {
	// Property: for random rank-2 matrices with 70% density, ALS achieves
	// substantial recovery. The bound is loose because ALS is non-convex
	// and an occasional seed lands in a worse local minimum.
	f := func(seed int64) bool {
		truth := lowRankTruth(12, 24, 2, seed)
		obs := sample(truth, 0.7, seed+1)
		if len(obs) < 100 {
			return true // too few observations sampled; skip
		}
		cfg := DefaultConfig(2)
		cfg.Lambda = 1e-3
		cfg.WeightedReg = false
		res, err := Complete(obs, 12, 24, cfg)
		if err != nil {
			return false
		}
		return relErr(truth, res) < 0.5
	}
	// Pin the generator: with time-based seeds the loose bound still
	// fails for the occasional unlucky input, making CI flaky.
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeErrorHelper(t *testing.T) {
	truth := mat.NewDenseData(1, 2, []float64{3, 4})
	res := &Result{W: mat.NewDenseData(1, 1, []float64{1}), H: mat.NewDenseData(1, 1, []float64{3})}
	// Column 0 maps to factor column 0; column 1 unmapped (predicts 0).
	got := RelativeError(truth, res, func(col int) (int, bool) {
		if col == 0 {
			return 0, true
		}
		return 0, false
	})
	// Error: (3-3)² + (4-0)² = 16; norm² = 25 → 4/5.
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("RelativeError = %v, want 0.8", got)
	}
}

// TestCompleteDeterministicAcrossWorkers pins the parallel-ALS contract:
// every worker count produces the bit-identical factorization, because row
// updates against a fixed opposite factor are independent and the restart
// winner is chosen in attempt order. Both kernel bodies must give the
// portable workers=1 result.
func TestCompleteDeterministicAcrossWorkers(t *testing.T) {
	truth := lowRankTruth(12, 25, 3, 21)
	obs := sample(truth, 0.4, 22)
	cfg := DefaultConfig(3)

	cfg.Workers = 1
	was := mat.SetSIMD(false)
	base, err := Complete(obs, 12, 25, cfg)
	mat.SetSIMD(was)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		kernelBodies(func(simd bool) {
			got, err := Complete(obs, 12, 25, cfg)
			if err != nil {
				t.Fatalf("workers=%d simd=%v: %v", workers, simd, err)
			}
			if err := sameBits(got, base); err != nil {
				t.Fatalf("workers=%d simd=%v: differs from workers=1: %v", workers, simd, err)
			}
		})
	}
}

// cloneDense copies a matrix so a test can later prove the original was
// not mutated.
func cloneDense(m *mat.Dense) *mat.Dense {
	rows, cols := m.Dims()
	out := mat.NewDense(rows, cols)
	copy(out.Data(), m.Data())
	return out
}

// TestWarmStartConvergesFaster is the warm-starting contract: re-solving
// the same (slightly grown) problem from a prior fit must reach the ALS
// early-stopping tolerance in strictly fewer sweeps than a cold solve, and
// the fit must be at least as good.
func TestWarmStartConvergesFaster(t *testing.T) {
	truth := lowRankTruth(30, 80, 3, 11)
	cfg := DefaultConfig(3)
	cfg.Restarts = 1
	// Room to converge before the iteration cap, so the iteration counts
	// reflect convergence speed rather than both hitting MaxIter.
	cfg.MaxIter = 500
	cfg.Tol = 1e-6

	cold, err := Complete(sample(truth, 0.3, 12), 30, 80, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A denser observation of the same matrix — the adaptive pipeline's
	// next wave — warm-started from the first fit.
	obs2 := sample(truth, 0.45, 12)
	coldCfg := cfg
	cold2, err := Complete(obs2, 30, 80, coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Warm = &Warm{W: cold.W, H: cold.H}
	warm2, err := Complete(obs2, 30, 80, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Iterations >= cold2.Iterations {
		t.Fatalf("warm start took %d iterations, cold took %d — warm must be strictly faster", warm2.Iterations, cold2.Iterations)
	}
	if warm2.Objective > cold2.Objective*1.05 {
		t.Fatalf("warm objective %v much worse than cold %v", warm2.Objective, cold2.Objective)
	}
}

// TestWarmStartDeterministicAcrossWorkers pins warm-started completion to
// the determinism invariant: same inputs, any worker count, identical bits.
func TestWarmStartDeterministicAcrossWorkers(t *testing.T) {
	truth := lowRankTruth(20, 50, 3, 21)
	obs := sample(truth, 0.4, 22)
	cfg := DefaultConfig(3)
	base, err := Complete(sample(truth, 0.25, 23), 20, 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warm = &Warm{W: base.W, H: base.H}

	var want *Result
	for _, workers := range []int{1, 2, 7} {
		c := cfg
		c.Workers = workers
		res, err := Complete(obs, 20, 50, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
			continue
		}
		for i, v := range res.W.Data() {
			if v != want.W.Data()[i] {
				t.Fatalf("workers=%d: W[%d] = %v, want %v", workers, i, v, want.W.Data()[i])
			}
		}
		for i, v := range res.H.Data() {
			if v != want.H.Data()[i] {
				t.Fatalf("workers=%d: H[%d] = %v, want %v", workers, i, v, want.H.Data()[i])
			}
		}
	}
}

// TestWarmStartDoesNotMutateWarmFactors: ALS mutates its working factors in
// place, so the warm input must be copied, not aliased.
func TestWarmStartDoesNotMutateWarmFactors(t *testing.T) {
	truth := lowRankTruth(15, 40, 2, 31)
	base, err := Complete(sample(truth, 0.3, 32), 15, 40, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	wCopy, hCopy := cloneDense(base.W), cloneDense(base.H)
	cfg := DefaultConfig(2)
	cfg.Warm = &Warm{W: base.W, H: base.H}
	if _, err := Complete(sample(truth, 0.5, 33), 15, 40, cfg); err != nil {
		t.Fatal(err)
	}
	for i, v := range base.W.Data() {
		if v != wCopy.Data()[i] {
			t.Fatalf("warm W was mutated at %d", i)
		}
	}
	for i, v := range base.H.Data() {
		if v != hCopy.Data()[i] {
			t.Fatalf("warm H was mutated at %d", i)
		}
	}
}

// TestWarmStartGrownAndMismatchedShapes: a problem that grew rows/columns
// copies the overlap and draws the rest from the seed; a rank mismatch
// falls back to a fully cold (and therefore bit-identical-to-cold) solve.
func TestWarmStartGrownAndMismatchedShapes(t *testing.T) {
	truth := lowRankTruth(25, 60, 3, 41)
	obs := sample(truth, 0.4, 42)
	var smallObs []Entry
	for _, e := range sample(truth, 0.3, 43) {
		if e.Row < 20 && e.Col < 45 {
			smallObs = append(smallObs, e)
		}
	}
	small, err := Complete(smallObs, 20, 45, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}

	grown := DefaultConfig(3)
	grown.Warm = &Warm{W: small.W, H: small.H}
	res, err := Complete(obs, 25, 60, grown)
	if err != nil {
		t.Fatalf("grown-shape warm start: %v", err)
	}
	if res.W.Rows() != 25 || res.H.Rows() != 60 {
		t.Fatalf("grown-shape result has shape %dx-/%dx-", res.W.Rows(), res.H.Rows())
	}

	cold := DefaultConfig(3)
	want, err := Complete(obs, 25, 60, cold)
	if err != nil {
		t.Fatal(err)
	}
	wrongRank, err := Complete(sample(truth, 0.3, 44), 25, 60, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	mismatch := DefaultConfig(3)
	mismatch.Warm = &Warm{W: wrongRank.W, H: wrongRank.H}
	got, err := Complete(obs, 25, 60, mismatch)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != want.Objective || got.Iterations != want.Iterations {
		t.Fatalf("rank-mismatched warm start diverged from cold solve: obj %v vs %v, iters %d vs %d",
			got.Objective, want.Objective, got.Iterations, want.Iterations)
	}
}

// TestCompleteCollapseIsNamedError pins the zero-fixed-point guard on a
// utility-scaled fixture: a rank-3 matrix whose observed entries have an
// RMS of 0.2, the scale of a test-loss utility. The default λ = 0.01 fits
// it; λ = 1 under the default weighted regularization shrinks every factor
// to ~0, and Complete must name that instead of returning the empty fit.
func TestCompleteCollapseIsNamedError(t *testing.T) {
	truth := lowRankTruth(10, 60, 3, 91)
	obs := sample(truth, 0.5, 92)
	var ss float64
	for _, e := range obs {
		ss += e.Val * e.Val
	}
	scale := 0.2 / math.Sqrt(ss/float64(len(obs)))
	for i := range obs {
		obs[i].Val *= scale
	}

	healthy, err := Complete(obs, 10, 60, DefaultConfig(5))
	if err != nil {
		t.Fatalf("default λ: %v", err)
	}
	if healthy.TrainRMSE > 0.1 {
		t.Fatalf("default λ fit RMSE %v on entries of RMS 0.2", healthy.TrainRMSE)
	}

	cfg := DefaultConfig(5)
	cfg.Lambda = 1
	res, err := Complete(obs, 10, 60, cfg)
	if !errors.Is(err, ErrCollapsed) {
		t.Fatalf("λ = 1: result %v, error %v, want ErrCollapsed", res, err)
	}
	if res != nil {
		t.Fatal("a collapsed completion must not return its factors")
	}

	// All-zero observations fit exactly at zero: that is not a collapse.
	zeros := append([]Entry(nil), obs...)
	for i := range zeros {
		zeros[i].Val = 0
	}
	if _, err := Complete(zeros, 10, 60, cfg); err != nil {
		t.Fatalf("all-zero observations: %v", err)
	}
}

// TestResultObjectiveMatchesFactors pins that a result's Objective and
// TrainRMSE are the objective of its own factors, bit for bit, whether the
// solver stopped at the tolerance or ran out of iterations. ALS squares
// and sums the residuals its H half-sweep wrote, so it runs on both kernel
// bodies at several worker counts and on fixtures that reach every
// residual path: chunks of shared patterns (patterned, exact-plan,
// chunked), unique-pattern columns and a column with no entries
// (remainders), and the transposed remainders, whose shared patterns sit
// on W.
func TestResultObjectiveMatchesFactors(t *testing.T) {
	truth := lowRankTruth(30, 60, 2, 3)
	obs := sample(truth, 0.5, 4)
	check := func(t *testing.T, obs []Entry, rows, cols int, cfg Config) *Result {
		t.Helper()
		res, err := Complete(obs, rows, cols, cfg)
		if err != nil {
			t.Fatal(err)
		}
		obj, rmse := objective(obs, res.W, res.H, cfg.Lambda)
		if math.Float64bits(res.Objective) != math.Float64bits(obj) || math.Float64bits(res.TrainRMSE) != math.Float64bits(rmse) {
			t.Fatalf("result (%v, %v), objective of its factors (%v, %v)", res.Objective, res.TrainRMSE, obj, rmse)
		}
		return res
	}
	for _, tc := range []struct {
		name      string
		maxIter   int
		converges bool
	}{
		{"als/tolerance", 200, true},
		{"als/max-iterations", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.MaxIter = tc.maxIter
			cfg.Lambda = 1e-3
			cfg.Tol = 1e-3
			for _, workers := range []int{1, 2, 4} {
				cfg.Workers = workers
				kernelBodies(func(simd bool) {
					res := check(t, obs, 30, 60, cfg)
					if stopped := res.Iterations < tc.maxIter; stopped != tc.converges {
						t.Fatalf("workers=%d simd=%v: %d of %d iterations: stopped early %v, want %v", workers, simd, res.Iterations, tc.maxIter, stopped, tc.converges)
					}
				})
			}
		})
	}

	exact, exactCols := exactPlanEntries(5, 12, 3, 3)
	chunked, chunkedRows, chunkedCols := chunkedEntries(3, 6)
	remainders, remRows, remCols := remainderEntries(3, 5, false)
	remaindersT, remRowsT, remColsT := remainderEntries(3, 5, true)
	plan := newALSPlan(remainders, remRows, remCols)
	unique, empty := 0, 0
	for _, it := range plan.h.items {
		switch i := it.rows[0]; {
		case len(plan.h.groups[i]) == 0:
			empty++
		case plan.h.shared[i] < 0:
			unique++
		}
	}
	if unique == 0 || empty == 0 {
		t.Fatalf("remainders H side: %d unique-pattern and %d empty columns, want some of each", unique, empty)
	}
	for _, fx := range []struct {
		name       string
		obs        []Entry
		rows, cols int
		rank       int
	}{
		{"patterned", patternedEntries(5, 42), patternedRows, patternedCols, 5},
		{"exact-plan", exact, 12, exactCols, 3},
		{"chunked", chunked, chunkedRows, chunkedCols, 3},
		{"remainders", remainders, remRows, remCols, 3},
		{"remainders-transposed", remaindersT, remRowsT, remColsT, 3},
	} {
		t.Run("als/"+fx.name, func(t *testing.T) {
			for _, maxIter := range []int{2, 60} {
				cfg := DefaultConfig(fx.rank)
				cfg.MaxIter = maxIter
				for _, workers := range []int{1, 2, 4} {
					cfg.Workers = workers
					kernelBodies(func(bool) { check(t, fx.obs, fx.rows, fx.cols, cfg) })
				}
			}
		})
	}
}

// TestObjectiveEveryLengthOrder pins the one-pass objective to the sums it
// must match, the squared residuals in observation order plus
// FrobeniusNorm's penalty, for every order of the three lengths (the
// residuals, W's entries, H's entries), ties included, so every loop of
// the pass runs.
func TestObjectiveEveryLengthOrder(t *testing.T) {
	g := rng.New(8)
	for _, n := range [][3]int{{3, 6, 9}, {3, 9, 6}, {6, 3, 9}, {6, 9, 3}, {9, 3, 6}, {9, 6, 3}, {6, 6, 6}, {6, 6, 9}, {6, 9, 6}, {9, 6, 6}} {
		resid := make([]float64, n[0])
		for i := range resid {
			resid[i] = g.Normal(0, 1)
		}
		w, h := randomFactor(n[1]/3, 3, 1, g), randomFactor(n[2]/3, 3, 1, g)
		slots := g.Perm(n[0])
		var sse float64
		for _, at := range slots {
			d := resid[at]
			sse += d * d
		}
		want, wantRMSE := penalized(sse, len(slots), w, h, 0.01)
		got, gotRMSE := (&alsPlan{slots: slots}).objective(resid, w, h, 0.01)
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotRMSE) != math.Float64bits(wantRMSE) {
			t.Fatalf("lengths %v: objective (%v, %v), want (%v, %v)", n, got, gotRMSE, want, wantRMSE)
		}
	}
}
