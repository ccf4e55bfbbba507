package utility

import (
	"context"
	"sync"
	"testing"
)

// TestEvaluatorConcurrent hammers one Evaluator from many goroutines over
// an overlapping cell set; run with -race. Concurrent first evaluations of
// a cell must agree with the serial result, and Calls must never exceed the
// number of distinct cells.
func TestEvaluatorConcurrent(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	serial := NewEvaluator(run)
	e := NewEvaluator(run)

	type cell struct {
		t    int
		mask uint64
	}
	var cells []cell
	for round := 0; round < 4; round++ {
		for mask := uint64(1); mask < 1<<5; mask++ {
			cells = append(cells, cell{round, mask})
		}
	}
	want := make([]float64, len(cells))
	for i, c := range cells {
		want[i] = serial.Utility(c.t, FromMask(5, c.mask))
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range cells {
					// Stagger start points so goroutines race on
					// different cells at any instant.
					j := (i + g*len(cells)/goroutines) % len(cells)
					c := cells[j]
					if got := e.Utility(c.t, FromMask(5, c.mask)); got != want[j] {
						t.Errorf("round %d mask %#x: concurrent %v, serial %v", c.t, c.mask, got, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if e.Calls() > len(cells) {
		t.Fatalf("Calls = %d, want at most %d distinct evaluations", e.Calls(), len(cells))
	}
	if e.Calls() != serial.Calls() {
		t.Fatalf("Calls = %d, serial made %d", e.Calls(), serial.Calls())
	}
}

// TestEvaluatorInflightDedup pins the sharded cache's singleflight
// behavior: when many goroutines request the same distinct cells at once,
// each cell's test-loss evaluation runs exactly once — Calls equals the
// distinct-cell count, not merely bounds it.
func TestEvaluatorInflightDedup(t *testing.T) {
	run := tinyRun(t, 6, 3, 2)
	e := NewEvaluator(run)

	var cells []Cell
	for round := 0; round < 3; round++ {
		for mask := uint64(1); mask < 1<<6; mask++ {
			cells = append(cells, Cell{Round: round, Subset: FromMask(6, mask)})
		}
	}

	const goroutines = 16
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait() // release every goroutine at once to maximize races
			for _, c := range cells {
				e.Utility(c.Round, c.Subset)
			}
		}()
	}
	start.Done()
	wg.Wait()

	if e.Calls() != len(cells) {
		t.Fatalf("Calls = %d, want exactly %d distinct evaluations", e.Calls(), len(cells))
	}
}

// TestUtilityBatchMatchesSerial checks UtilityBatchCtx against one-by-one
// evaluation for several worker counts, including duplicate cells in the
// batch.
func TestUtilityBatchMatchesSerial(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	serial := NewEvaluator(run)

	var cells []Cell
	for round := 0; round < 4; round++ {
		for mask := uint64(1); mask < 1<<5; mask++ {
			cells = append(cells, Cell{Round: round, Subset: FromMask(5, mask)})
		}
	}
	// Duplicates and an empty subset must round-trip too.
	cells = append(cells, cells[3], cells[17], Cell{Round: 1, Subset: NewSet(5)})

	want := make([]float64, len(cells))
	for i, c := range cells {
		want[i] = serial.Utility(c.Round, c.Subset)
	}

	for _, workers := range []int{0, 1, 4, 64} {
		e := NewEvaluator(run)
		got, err := e.UtilityBatchCtx(context.Background(), cells, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cell %d: batch %v, serial %v", workers, i, got[i], want[i])
			}
		}
		if e.Calls() != serial.Calls() {
			t.Fatalf("workers=%d: Calls = %d, serial made %d", workers, e.Calls(), serial.Calls())
		}
	}
}

// TestUtilityBatchCancellation verifies a cancelled context aborts the
// batch with the context's error.
func TestUtilityBatchCancellation(t *testing.T) {
	run := tinyRun(t, 5, 3, 2)
	e := NewEvaluator(run)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cells []Cell
	for mask := uint64(1); mask < 1<<5; mask++ {
		cells = append(cells, Cell{Round: 0, Subset: FromMask(5, mask)})
	}
	if _, err := e.UtilityBatchCtx(ctx, cells, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPreloadConcurrentWithLookups races Preload against lookups of the
// same cells, as a coordinator absorbs a remote batch while other shards
// observe; run with -race. Every cell ends up either evaluated or
// preloaded, never both, and every lookup returns the serial value.
func TestPreloadConcurrentWithLookups(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	serial := NewEvaluator(run)
	var cells []Cell
	for round := 0; round < 4; round++ {
		for mask := uint64(1); mask < 1<<5; mask++ {
			cells = append(cells, Cell{Round: round, Subset: FromMask(5, mask)})
		}
	}
	want := make([]float64, len(cells))
	for i, c := range cells {
		want[i] = serial.Utility(c.Round, c.Subset)
	}
	batch := serial.ExportNew()

	e := NewEvaluator(run)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			if g == 0 {
				if _, err := e.Preload(batch); err != nil {
					t.Error(err)
				}
				return
			}
			for i := range cells {
				j := (i + g*len(cells)/4) % len(cells)
				if got := e.Utility(cells[j].Round, cells[j].Subset); got != want[j] {
					t.Errorf("cell %d: concurrent %v, serial %v", j, got, want[j])
					return
				}
			}
		}(g)
	}
	start.Done()
	wg.Wait()

	if got := e.Calls() + e.Preloaded(); got != len(cells) {
		t.Fatalf("Calls %d + Preloaded %d = %d, want %d distinct cells", e.Calls(), e.Preloaded(), got, len(cells))
	}
	if exp := e.ExportNew(); e.Calls() > 0 && (exp == nil || len(exp.Cells) != e.Calls()) {
		t.Fatalf("ExportNew after %d evaluations returned %v", e.Calls(), exp)
	}
}
