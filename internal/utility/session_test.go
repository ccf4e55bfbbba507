package utility

import (
	"context"
	"sync"
	"testing"
)

// A valuation job's session over a shared evaluator is the sequence of
// batches it evaluates. Its ledger is read from those batches: the cells it
// listed are its Calls, the misses its batches report are the cells it
// paid, and the rest are hits on cells the shared table already held. The
// tests below pin that ledger against a fresh evaluator's.

// distinctCells counts the nonempty distinct cells of a list — the Calls a
// fresh evaluator reports after evaluating it.
func distinctCells(cells []Cell) int {
	seen := make(map[cellKey]struct{}, len(cells))
	for _, c := range cells {
		if !c.Subset.IsEmpty() {
			seen[cellKey{t: c.Round, set: c.Subset.Key()}] = struct{}{}
		}
	}
	return len(seen)
}

// TestSessionMatchesFreshEvaluator pins the accounting contract shared-run
// jobs depend on: a job over a warm shared evaluator gets the same values
// as over a fresh evaluator, a cold job's batch pays exactly the cells a
// fresh evaluator would, and a warm job's batch pays nothing and leaves the
// shared evaluation count where it was.
func TestSessionMatchesFreshEvaluator(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	shared := NewEvaluator(run)

	var cells []Cell
	for round := 0; round < 4; round++ {
		for mask := uint64(1); mask < 1<<5; mask++ {
			cells = append(cells, Cell{Round: round, Subset: FromMask(5, mask)})
		}
	}
	// Duplicates and the empty set are valued but never paid twice.
	cells = append(cells, cells[5], cells[40], Cell{Round: 2, Subset: NewSet(5)})

	fresh := NewEvaluator(run)
	want := make([]float64, len(cells))
	for i, c := range cells {
		want[i] = fresh.Utility(c.Round, c.Subset)
	}
	if d := distinctCells(cells); fresh.Calls() != d {
		t.Fatalf("fresh evaluator made %d calls for %d distinct cells", fresh.Calls(), d)
	}

	// First job: the shared cache is cold, so every distinct cell is a miss.
	got, misses1, err := shared.UtilityBatchCtx(context.Background(), cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job 1 cell %d: %v, fresh evaluator %v", i, got[i], want[i])
		}
	}
	if misses1 != fresh.Calls() {
		t.Fatalf("job 1 paid %d cells, fresh evaluator made %d calls", misses1, fresh.Calls())
	}

	// Second job over the same evaluator: identical values, but every cell
	// is a hit and the shared evaluator pays for nothing new.
	before, hitsBefore := shared.Calls(), shared.Hits()
	got, misses2, err := shared.UtilityBatchCtx(context.Background(), cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job 2 cell %d: %v, fresh evaluator %v", i, got[i], want[i])
		}
	}
	if misses2 != 0 {
		t.Fatalf("warm job paid %d cells, want none", misses2)
	}
	if shared.Calls() != before {
		t.Fatalf("warm job grew the shared evaluation count %d -> %d", before, shared.Calls())
	}
	if hits := shared.Hits() - hitsBefore; hits < distinctCells(cells) {
		t.Fatalf("warm job recorded %d hits, want at least its %d distinct cells", hits, distinctCells(cells))
	}
}

// TestSessionBatchMatchesSerial checks UtilityBatchCtx over one shared
// evaluator against one-by-one evaluation for several worker counts: the
// first batch pays what serial evaluation pays, every later batch at
// another worker count pays nothing, and all return the serial values.
func TestSessionBatchMatchesSerial(t *testing.T) {
	run := tinyRun(t, 5, 3, 2)
	fresh := NewEvaluator(run)

	var cells []Cell
	for round := 0; round < 3; round++ {
		for mask := uint64(1); mask < 1<<5; mask++ {
			cells = append(cells, Cell{Round: round, Subset: FromMask(5, mask)})
		}
	}
	cells = append(cells, cells[7], Cell{Round: 0, Subset: NewSet(5)})
	want := make([]float64, len(cells))
	for i, c := range cells {
		want[i] = fresh.Utility(c.Round, c.Subset)
	}

	shared := NewEvaluator(run)
	paid := 0
	for _, workers := range []int{0, 1, 4, 64} {
		got, misses, err := shared.UtilityBatchCtx(context.Background(), cells, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d cell %d: batch %v, serial %v", workers, i, got[i], want[i])
			}
		}
		if paid == 0 && misses != fresh.Calls() {
			t.Fatalf("workers=%d: cold batch paid %d cells, fresh evaluator made %d calls", workers, misses, fresh.Calls())
		}
		if paid != 0 && misses != 0 {
			t.Fatalf("workers=%d: warm batch paid %d cells, want none", workers, misses)
		}
		paid += misses
		if shared.Calls() != fresh.Calls() {
			t.Fatalf("workers=%d: shared Calls = %d, fresh evaluator made %d", workers, shared.Calls(), fresh.Calls())
		}
	}
}

// TestSessionsConcurrent hammers one shared evaluator from many concurrent
// jobs (run with -race): the model for N valuation jobs sharing one run.
// Every job must see serial-identical values, the shared evaluator must
// evaluate each cell exactly once, and the jobs' paid cells must add up to
// that count — each cell is paid by exactly one job.
func TestSessionsConcurrent(t *testing.T) {
	run := tinyRun(t, 6, 3, 2)
	shared := NewEvaluator(run)
	serial := NewEvaluator(run)

	var cells []Cell
	for round := 0; round < 3; round++ {
		for mask := uint64(1); mask < 1<<6; mask++ {
			cells = append(cells, Cell{Round: round, Subset: FromMask(6, mask)})
		}
	}
	want := make([]float64, len(cells))
	for i, c := range cells {
		want[i] = serial.Utility(c.Round, c.Subset)
	}

	const jobs = 8
	var wg sync.WaitGroup
	paid := make([]int, jobs)
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each job additionally fans out internally, like the
			// Monte-Carlo observation stage does.
			got, misses, err := shared.UtilityBatchCtx(context.Background(), cells, 4)
			if err != nil {
				t.Errorf("job %d: %v", g, err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("job %d cell %d: %v, want %v", g, i, got[i], want[i])
					return
				}
			}
			if misses < 0 || misses > len(cells) {
				t.Errorf("job %d paid %d cells, want between 0 and %d", g, misses, len(cells))
			}
			paid[g] = misses
		}(g)
	}
	wg.Wait()

	if shared.Calls() != len(cells) {
		t.Fatalf("shared evaluator Calls = %d, want exactly %d (each cell evaluated once)", shared.Calls(), len(cells))
	}
	total := 0
	for _, p := range paid {
		total += p
	}
	if total != len(cells) {
		t.Fatalf("jobs paid %d cells in all (%v), want exactly %d", total, paid, len(cells))
	}
}
