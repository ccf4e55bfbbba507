package shapley

import (
	"context"
	"math"
	"reflect"
	"testing"

	"comfedsv/internal/utility"
)

// adaptiveConfig is a small tolerance config exercised by the plan tests:
// budget 64 cuts into waves [16, 32, 64].
func adaptiveConfig(tol float64) MonteCarloConfig {
	cfg := DefaultMonteCarloConfig(6, 3, 51)
	cfg.Samples = 64
	cfg.Tolerance = tol
	return cfg
}

// runAdaptive drives a tolerance plan the way a Valuation would: pay every
// wave's cells in shards chunks (optionally concurrently), Advance, repeat
// until Advance reports no further wave, then Extract.
func runAdaptive(t *testing.T, cfg MonteCarloConfig, shards int, concurrent bool) (*MonteCarloPlan, *Result) {
	t.Helper()
	e := duplicatedEvaluator(t, 500)
	p := newPlan(t, e, cfg)
	order := "serial"
	if concurrent {
		order = "concurrent"
	}
	res, _ := runChunked(t, e, p, shards, order)
	return p, res
}

// TestWaveBounds pins the wave schedule as a pure function of the budget.
func TestWaveBounds(t *testing.T) {
	for _, tc := range []struct {
		budget int
		want   []int
	}{
		{400, []int{50, 100, 200, 400}},
		{64, []int{16, 32, 64}},
		{25, []int{16, 25}},
		{16, []int{16}},
		{10, []int{10}},
		{129, []int{16, 32, 64, 128, 129}},
	} {
		if got := waveBounds(tc.budget); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("waveBounds(%d) = %v, want %v", tc.budget, got, tc.want)
		}
	}
}

// TestAdaptiveShardAndConcurrencyInvariant pins the tentpole determinism
// guarantee for tolerance mode at the shapley layer: the stopping wave,
// the observation list, and the final values are identical for shard
// counts 1, 2, and 8, with shards run serially or concurrently.
func TestAdaptiveShardAndConcurrencyInvariant(t *testing.T) {
	const tol = 0.2
	basePlan, base := runAdaptive(t, adaptiveConfig(tol), 1, false)
	if basePlan.Used() >= basePlan.Budget() {
		t.Fatalf("baseline adaptive run used the whole budget (%d) — tolerance too tight to test early stop", basePlan.Budget())
	}
	for _, shards := range []int{2, 8} {
		for _, concurrent := range []bool{false, true} {
			p, got := runAdaptive(t, adaptiveConfig(tol), shards, concurrent)
			if p.Used() != basePlan.Used() {
				t.Fatalf("shards=%d concurrent=%v stopped at %d permutations, want %d", shards, concurrent, p.Used(), basePlan.Used())
			}
			if !reflect.DeepEqual(got.Values, base.Values) {
				t.Fatalf("shards=%d concurrent=%v values diverge:\n%v\nvs\n%v", shards, concurrent, got.Values, base.Values)
			}
			if !reflect.DeepEqual(got.Store.Observations(), base.Store.Observations()) {
				t.Fatalf("shards=%d concurrent=%v observation list diverges", shards, concurrent)
			}
			if got.UnobservedColumns != base.UnobservedColumns {
				t.Fatalf("shards=%d concurrent=%v unobserved %d, want %d", shards, concurrent, got.UnobservedColumns, base.UnobservedColumns)
			}
		}
	}
}

// TestAdaptiveEarlyStopSavesObservationsWithinTolerance pins the perf
// contract: a loose tolerance stops before the budget, and the early
// estimates stay within that tolerance of the full-budget fixed run.
func TestAdaptiveEarlyStopSavesObservationsWithinTolerance(t *testing.T) {
	const tol = 0.2
	p, got := runAdaptive(t, adaptiveConfig(tol), 2, false)
	if p.Used() >= p.Budget() {
		t.Fatalf("used %d of budget %d — no early stop", p.Used(), p.Budget())
	}
	stats := p.Waves()
	if len(stats) < 2 {
		t.Fatalf("expected at least two waves, got %v", stats)
	}
	last := stats[len(stats)-1]
	if last.MaxDelta < 0 || last.MaxDelta > tol {
		t.Fatalf("stopping wave MaxDelta = %v, want in (0, %v]", last.MaxDelta, tol)
	}
	if stats[0].MaxDelta != -1 {
		t.Fatalf("first wave MaxDelta = %v, want -1", stats[0].MaxDelta)
	}
	// Warm-started re-completions must converge in fewer sweeps than the
	// cold first wave.
	for _, ws := range stats[1:] {
		if ws.CompletionIterations >= stats[0].CompletionIterations {
			t.Logf("wave at %d samples took %d ALS iterations vs cold %d (not strictly fewer — acceptable but worth seeing)",
				ws.Samples, ws.CompletionIterations, stats[0].CompletionIterations)
		}
	}

	// Accuracy: the early-stopped estimates track the exhausted-budget
	// fixed pipeline within the requested tolerance.
	e := duplicatedEvaluator(t, 500)
	fixed, err := MonteCarlo(e, adaptiveConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Values {
		if d := math.Abs(got.Values[i] - fixed.Values[i]); d > tol {
			t.Fatalf("client %d adaptive estimate off by %v from full-budget value, tolerance %v", i, d, tol)
		}
	}
}

// TestAdaptiveTightToleranceExhaustsBudget pins the degradation path: a
// tolerance no wave can meet runs every wave and uses the whole budget. The
// observed cell *set* then equals the fixed-budget pipeline's — the same
// utility evaluations were paid for — though the list order is wave-major
// rather than the fixed pipeline's single full walk.
func TestAdaptiveTightToleranceExhaustsBudget(t *testing.T) {
	p, got := runAdaptive(t, adaptiveConfig(1e-12), 2, false)
	if p.Used() != p.Budget() {
		t.Fatalf("used %d, want full budget %d", p.Used(), p.Budget())
	}
	if len(p.Waves()) != 3 {
		t.Fatalf("expected 3 waves for budget 64, got %v", p.Waves())
	}
	e := duplicatedEvaluator(t, 500)
	fixed, err := MonteCarlo(e, adaptiveConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		round, col int
	}
	set := func(obs []utility.Observation) map[cell]float64 {
		m := make(map[cell]float64, len(obs))
		for _, o := range obs {
			m[cell{o.Row, o.Col}] = o.Val
		}
		return m
	}
	if !reflect.DeepEqual(set(got.Store.Observations()), set(fixed.Store.Observations())) {
		t.Fatal("exhausted adaptive observed-cell set diverges from fixed pipeline")
	}
}

// TestAdaptiveToleranceValidation pins the constructor's input contract.
func TestAdaptiveToleranceValidation(t *testing.T) {
	e := duplicatedEvaluator(t, 500)
	for _, tol := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := NewMonteCarloPlan(context.Background(), e.Run(), adaptiveConfig(tol)); err == nil {
			t.Errorf("tolerance %v accepted, want error", tol)
		}
	}
	cfg := adaptiveConfig(0.1)
	cfg.Samples = 0
	if _, err := NewMonteCarloPlan(context.Background(), e.Run(), cfg); err == nil {
		t.Error("zero sample budget accepted, want error")
	}
}

// TestAdaptiveStageOrderErrors pins the stage contract: advancing
// before the wave is listed, extracting before convergence, and listing or
// advancing a finished plan are loud errors.
func TestAdaptiveStageOrderErrors(t *testing.T) {
	ctx := context.Background()
	e := duplicatedEvaluator(t, 500)
	p := newPlan(t, e, adaptiveConfig(0.05))
	if _, err := p.Advance(ctx, nil); err == nil {
		t.Fatal("Advance before listing the wave must fail")
	}
	if _, err := p.Extract(ctx); err == nil {
		t.Fatal("Extract before the plan finished must fail")
	}
	for more := true; more; {
		cells, err := p.Cells(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := e.UtilityBatchCtx(ctx, cells, 2)
		if err != nil {
			t.Fatal(err)
		}
		if more, err = p.Advance(ctx, vals); err != nil {
			t.Fatal(err)
		}
		if more {
			if _, err := p.Extract(ctx); err == nil {
				t.Fatal("Extract between waves must fail")
			}
		}
	}
	if _, err := p.Cells(ctx); err == nil {
		t.Fatal("Cells after the plan finished must fail")
	}
	if _, err := p.Advance(ctx, nil); err == nil {
		t.Fatal("Advance after the plan finished must fail")
	}
	if _, err := p.Extract(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveCancellationMidWave pins cooperative cancellation: a context
// cancelled between waves aborts the next stage with ctx.Err() instead of
// running to completion.
func TestAdaptiveCancellationMidWave(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := duplicatedEvaluator(t, 500)
	p := newPlan(t, e, adaptiveConfig(1e-12))
	cells, err := p.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := e.UtilityBatchCtx(ctx, cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	more, err := p.Advance(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !more {
		t.Fatal("tight tolerance finished after one wave — cannot test mid-wave cancellation")
	}
	cells, err = p.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := p.Advance(ctx, make([]float64, len(cells))); err == nil {
		t.Fatal("Advance after cancellation must fail")
	}
	if _, err := p.Cells(ctx); err == nil {
		t.Fatal("Cells after cancellation must fail")
	}
}

// Waves returns the per-wave statistics recorded by Advance so far.
func (p *MonteCarloPlan) Waves() []WaveStat { return p.stats }

// Budget returns the permutation budget the plan sampled.
func (p *MonteCarloPlan) Budget() int { return len(p.perms) }
