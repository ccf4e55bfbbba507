package shapley

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"comfedsv/internal/mc"
	"comfedsv/internal/utility"
)

// planConfig is a small Monte-Carlo config exercised by every plan test.
func planConfig() MonteCarloConfig {
	cfg := DefaultMonteCarloConfig(6, 3, 51)
	cfg.Samples = 24
	return cfg
}

// payWave pays a wave's cells through e in k contiguous chunks (clamped to
// [1, len(cells)]), the way a Valuation shards a wave — serially, in
// reverse, or concurrently — and returns their values in list order and
// each chunk's cell-batch digest.
func payWave(t *testing.T, ctx context.Context, e utility.Source, cells []utility.Cell, k int, order string) ([]float64, []string) {
	t.Helper()
	k = max(1, min(k, len(cells)))
	chunks := make([][]float64, k)
	errs := make([]error, k)
	pay := func(i int) {
		chunks[i], errs[i] = e.UtilityBatchCtx(ctx, cells[i*len(cells)/k:(i+1)*len(cells)/k], 2)
	}
	var wg sync.WaitGroup
	for i := range k {
		switch order {
		case "serial":
			pay(i)
		case "reverse":
			pay(k - 1 - i)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				pay(i)
			}()
		}
	}
	wg.Wait()
	var vals []float64
	digests := make([]string, k)
	for i, chunk := range chunks {
		if errs[i] != nil {
			t.Fatalf("chunk %d: %v", i, errs[i])
		}
		digests[i] = utility.NewCellBatch(e.Run().NumClients(), cells[i*len(cells)/k:(i+1)*len(cells)/k], chunk).Digest
		vals = append(vals, chunk...)
	}
	return vals, digests
}

// runChunked drives a plan wave by wave, paying each wave's cells in k
// chunks in the given order, and returns the result and every chunk's
// digest across the waves.
func runChunked(t *testing.T, e utility.Source, p stagedPlan, k int, order string) (*Result, []string) {
	t.Helper()
	ctx := context.Background()
	var digests []string
	for more := true; more; {
		cells, err := p.Cells(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vals, d := payWave(t, ctx, e, cells, k, order)
		digests = append(digests, d...)
		if more, err = p.Advance(ctx, vals); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res, digests
}

// newPlan is NewMonteCarloPlan over e's run, failing the test on error.
func newPlan(t *testing.T, e utility.Source, cfg MonteCarloConfig) *MonteCarloPlan {
	t.Helper()
	p, err := NewMonteCarloPlan(context.Background(), e.Run(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMonteCarloShardCountInvariant pins the determinism guarantee at
// the shapley layer: paying a wave in 2 or 8 chunks gives the observation
// list, the completion, and the final values of the one-batch pipeline.
func TestMonteCarloShardCountInvariant(t *testing.T) {
	e := duplicatedEvaluator(t, 500)
	base, err := MonteCarlo(e, planConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		got, _ := runChunked(t, e, newPlan(t, e, planConfig()), shards, "serial")
		if !reflect.DeepEqual(got.Values, base.Values) {
			t.Fatalf("shards=%d values diverge:\n%v\nvs\n%v", shards, got.Values, base.Values)
		}
		if !reflect.DeepEqual(got.Store.Observations(), base.Store.Observations()) {
			t.Fatalf("shards=%d observation list diverges from serial order", shards)
		}
		if got.UnobservedColumns != base.UnobservedColumns {
			t.Fatalf("shards=%d unobserved columns %d, want %d", shards, got.UnobservedColumns, base.UnobservedColumns)
		}
	}
}

// TestMonteCarloPlanShardOrderInvariant pays a plan's wave in chunks in
// reverse and concurrently: Advance must still record the serial order, so
// the result matches the plain pipeline byte for byte.
func TestMonteCarloPlanShardOrderInvariant(t *testing.T) {
	e := duplicatedEvaluator(t, 501)
	want, err := MonteCarlo(e, planConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent payment is meaningful under -race: the chunks share the
	// evaluator.
	for _, order := range []string{"reverse", "concurrent"} {
		got, _ := runChunked(t, e, newPlan(t, e, planConfig()), 4, order)
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("%s chunk payment changed the values", order)
		}
		if !reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) {
			t.Fatalf("%s chunk payment changed the observation list", order)
		}
	}
}

// TestMonteCarloPlanStageOrderErrors pins the plans' stage contract:
// skipping a stage, or handing Advance the wrong number of values, is a
// loud error, not silent corruption.
func TestMonteCarloPlanStageOrderErrors(t *testing.T) {
	e := duplicatedEvaluator(t, 502)
	ctx := context.Background()
	p := newPlan(t, e, planConfig())
	if _, err := p.Advance(ctx, nil); err == nil {
		t.Fatal("Advance before Cells must fail")
	}
	if _, err := p.Extract(ctx); err == nil {
		t.Fatal("Extract before Advance must fail")
	}
	cells, err := p.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := e.UtilityBatchCtx(ctx, cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Advance(ctx, vals[1:]); err == nil {
		t.Fatal("Advance with a value missing must fail")
	}
	if more, err := p.Advance(ctx, vals); err != nil || more {
		t.Fatalf("fixed-budget Advance = %v, %v; want false, nil", more, err)
	}
	if _, err := p.Cells(ctx); err == nil {
		t.Fatal("Cells after the plan finished must fail")
	}
	if _, err := p.Advance(ctx, vals); err == nil {
		t.Fatal("Advance after the plan finished must fail")
	}

	ep, err := NewExactPlan(e.Run(), mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Extract(ctx); err == nil {
		t.Fatal("exact Extract before Advance must fail")
	}
	if _, err := ep.Advance(ctx, nil); err == nil {
		t.Fatal("exact Advance without values must fail")
	}
	cells, err = ep.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals, err = e.UtilityBatchCtx(ctx, cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Advance(ctx, vals[:len(vals)-1]); err == nil {
		t.Fatal("exact Advance with a value missing must fail")
	}
	if more, err := ep.Advance(ctx, vals); err != nil || more {
		t.Fatalf("exact Advance = %v, %v; want false, nil", more, err)
	}
	if _, err := ep.Cells(ctx); err == nil {
		t.Fatal("exact Cells after the plan finished must fail")
	}
	if _, err := ep.Advance(ctx, vals); err == nil {
		t.Fatal("exact Advance after the plan finished must fail")
	}
}

// TestExactShardCountInvariant pins the exact plan against chunked
// payment: for 1, 2, T and T+3 chunks, paid serially, in reverse and
// concurrently, the observation list, the completion and the values are
// identical to ComFedSVExact's, and every chunk's digest is that of a
// cell batch over its own stretch of the observation list.
func TestExactShardCountInvariant(t *testing.T) {
	e := testEvaluator(t, 6, 5, 2, 504)
	cfg := mc.DefaultConfig(3)
	want, err := ComFedSVExact(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(e.Run().Rounds)
	for _, shards := range []int{1, 2, rounds, rounds + 3} {
		for _, order := range []string{"serial", "reverse", "concurrent"} {
			p, err := NewExactPlan(e.Run(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, digests := runChunked(t, e, p, shards, order)
			if !reflect.DeepEqual(got.Values, want.Values) ||
				!reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) ||
				!reflect.DeepEqual(got.Completion, want.Completion) {
				t.Fatalf("%d shards, %s: result differs from the one-batch pipeline", shards, order)
			}
			obs := got.Store.Observations()
			for i, d := range digests {
				var cells []utility.Cell
				var vals []float64
				for _, o := range obs[i*len(obs)/len(digests) : (i+1)*len(obs)/len(digests)] {
					cells = append(cells, utility.Cell{Round: o.Row, Subset: got.Store.ColumnSet(o.Col)})
					vals = append(vals, o.Val)
				}
				if d != utility.NewCellBatch(e.Run().NumClients(), cells, vals).Digest {
					t.Fatalf("%d shards, %s: chunk %d digest %q is not its observations' cell-batch digest", shards, order, i, d)
				}
			}
		}
	}
}
