package utility

import (
	"context"
	"math"
	"testing"
)

// TestParallelFullMatrixMatchesSerial pins FullMatrix's batch path, at
// every worker count, against a serial per-cell loop that calls the run's
// Utility directly, bypassing the evaluator: every cell agrees bit for bit.
func TestParallelFullMatrixMatchesSerial(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	n := run.NumClients()
	for _, workers := range []int{1, 2, 4, 0} {
		parallel := FullMatrix(NewEvaluator(run), workers)
		rows, cols := parallel.Dims()
		if rows != len(run.Rounds) || cols != 1<<uint(n) {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d", workers, rows, cols, len(run.Rounds), 1<<uint(n))
		}
		for i := 0; i < rows; i++ {
			if parallel.At(i, 0) != 0 {
				t.Fatalf("workers=%d: empty-set cell of round %d is %v", workers, i, parallel.At(i, 0))
			}
			for mask := 1; mask < cols; mask++ {
				want := run.Utility(i, FromMask(n, uint64(mask)).Members())
				if got := parallel.At(i, mask); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers=%d: cell (%d,%d) = %v, serial %v", workers, i, mask, got, want)
				}
			}
		}
	}
}

// TestEvaluateBatch checks UtilityBatchCtx against direct run.Utility
// calls in input order, duplicates and the empty coalition included, and
// its miss count: the distinct cells a cold evaluator paid, then none.
func TestEvaluateBatch(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	cells := []Cell{
		{Round: 0, Subset: FromMembers(4, []int{0})},
		{Round: 1, Subset: FromMembers(4, []int{1, 2})},
		{Round: 2, Subset: NewSet(4)}, // empty → 0
		{Round: 2, Subset: FromMembers(4, []int{0, 1, 2, 3})},
		{Round: 1, Subset: FromMembers(4, []int{2, 1})}, // duplicate
	}
	e := NewEvaluator(run)
	for pass, wantMisses := range []int{3, 0} {
		got, misses, err := e.UtilityBatchCtx(context.Background(), cells, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cells) {
			t.Fatalf("got %d results, want %d", len(got), len(cells))
		}
		for i, c := range cells {
			want := 0.0
			if !c.Subset.IsEmpty() {
				want = run.Utility(c.Round, c.Subset.Members())
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("pass %d cell %d: %v, want %v", pass, i, got[i], want)
			}
		}
		if misses != wantMisses || e.Calls() != 3 {
			t.Fatalf("pass %d: %d misses and %d distinct calls, want %d and 3", pass, misses, e.Calls(), wantMisses)
		}
	}
}

func TestEvaluateBatchEmptyInput(t *testing.T) {
	run := tinyRun(t, 3, 2, 2)
	got, misses, err := NewEvaluator(run).UtilityBatchCtx(context.Background(), nil, 2)
	if err != nil || len(got) != 0 || misses != 0 {
		t.Fatalf("expected an empty result, got %v, err %v", got, err)
	}
}
