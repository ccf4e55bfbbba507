package utility

import (
	"context"
	"fmt"
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

// TestEvaluateBatch checks UtilityBatchCtx, on an evaluator and on a
// session, against direct run.Utility calls in input order, duplicates
// and the empty coalition included.
func TestEvaluateBatch(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	cells := []Cell{
		{Round: 0, Subset: FromMembers(4, []int{0})},
		{Round: 1, Subset: FromMembers(4, []int{1, 2})},
		{Round: 2, Subset: NewSet(4)}, // empty → 0
		{Round: 2, Subset: FromMembers(4, []int{0, 1, 2, 3})},
		{Round: 1, Subset: FromMembers(4, []int{2, 1})}, // duplicate
	}
	for _, src := range []Source{NewEvaluator(run), NewEvaluator(run).NewSession()} {
		got, err := src.UtilityBatchCtx(context.Background(), cells, 3)
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
				t.Fatalf("%T cell %d: %v, want %v", src, i, got[i], want)
			}
		}
		if src.Calls() != 3 {
			t.Fatalf("%T: %d distinct calls, want 3", src, src.Calls())
		}
	}
}

func TestEvaluateBatchEmptyInput(t *testing.T) {
	run := tinyRun(t, 3, 2, 2)
	got, err := NewEvaluator(run).UtilityBatchCtx(context.Background(), nil, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("expected an empty result, got %v, err %v", got, err)
	}
}

// TestUnion pins Union's contract: a's cells first, then b's new cells in
// b's order and each once, the index of every b cell in the result, and a's
// backing array left unwritten even when it has spare capacity.
func TestUnion(t *testing.T) {
	cell := func(round int, members ...int) Cell { return Cell{Round: round, Subset: FromMembers(70, members)} }
	a := append(make([]Cell, 0, 8), cell(0, 1), cell(1, 1, 65))
	spare := a[:3]
	spare[2] = cell(9, 9)
	got, at := Union(a, []Cell{cell(1, 1, 65), cell(0, 2), cell(0, 2), cell(0, 1)})
	want := []Cell{cell(0, 1), cell(1, 1, 65), cell(0, 2)}
	if len(got) != len(want) {
		t.Fatalf("Union returned %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Round != want[i].Round || got[i].Subset.Key() != want[i].Subset.Key() {
			t.Fatalf("cell %d = %v %v, want %v %v", i, got[i].Round, got[i].Subset, want[i].Round, want[i].Subset)
		}
	}
	if fmt.Sprint(at) != "[1 2 2 0]" {
		t.Fatalf("at = %v, want [1 2 2 0]", at)
	}
	if spare[2].Round != 9 {
		t.Fatal("Union wrote into a's backing array")
	}
}
