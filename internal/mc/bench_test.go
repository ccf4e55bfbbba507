package mc

import (
	"fmt"
	"sort"
	"testing"

	"comfedsv/internal/rng"
)

// synthEntries samples a density-fraction of a random rank-`rank` matrix,
// the observation pattern the completion solver sees in production.
func synthEntries(rows, cols, rank int, density float64, seed int64) []Entry {
	g := rng.New(seed)
	w := randomFactor(rows, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	var out []Entry
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if g.Float64() < density {
				v := 0.0
				for k := 0; k < rank; k++ {
					v += w.Row(i)[k] * h.Row(j)[k]
				}
				out = append(out, Entry{Row: i, Col: j, Val: v})
			}
		}
	}
	return out
}

// patternedRows × patternedCols is the shape of a Monte-Carlo job's
// utility matrix on a 24-client, 30-round run with 60 permutations.
const patternedRows, patternedCols = 30, 1288

// patternedEntries samples a random rank-`rank` matrix on that job's
// observation pattern: most permutation-prefix columns are observed in
// exactly one round, and the 34 that recur share three row patterns (all
// rows, and seeded subsets of 10 and 20 rows). One-entry columns cycle over
// every row, so the matrix shows 33 distinct row patterns; columns of both
// kinds are interleaved in a seeded order.
func patternedEntries(rank int, seed int64) []Entry {
	g := rng.New(seed)
	w := randomFactor(patternedRows, rank, 1, g)
	h := randomFactor(patternedCols, rank, 1, g)
	all := make([]int, patternedRows)
	for i := range all {
		all[i] = i
	}
	shuffled := g.Perm(patternedRows)
	patterns := [][]int{all, shuffled[:10], shuffled[:20]}
	var out []Entry
	for k, j := range g.Perm(patternedCols) {
		rows := []int{k % patternedRows}
		if k < 34 {
			rows = patterns[k%len(patterns)]
		}
		for _, i := range rows {
			v := 0.0
			for r := 0; r < rank; r++ {
				v += w.Row(i)[r] * h.Row(j)[r]
			}
			out = append(out, Entry{Row: i, Col: j, Val: v})
		}
	}
	return out
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// TestPatternedEntriesShape pins the production shape BenchmarkComplete's
// patterned case claims to have.
func TestPatternedEntriesShape(t *testing.T) {
	byCol := map[int][]int{}
	for _, e := range patternedEntries(5, 42) {
		byCol[e.Col] = append(byCol[e.Col], e.Row)
	}
	single := 0
	patterns := map[string]bool{}
	for _, rows := range byCol {
		if len(rows) == 1 {
			single++
		}
		patterns[fmt.Sprint(sortedInts(rows))] = true
	}
	if len(byCol) != patternedCols || single != 1254 || len(patterns) != 33 {
		t.Fatalf("%d observed columns, %d with one entry, %d row patterns; want %d, 1254, 33",
			len(byCol), single, len(patterns), patternedCols)
	}
}

// BenchmarkComplete measures the ALS solver at rank 5 across worker counts
// on two utility-matrix shapes:
//
//   - workers-N: T=60 rounds × 400 prefix columns, each entry observed
//     with probability 0.15. Run with -benchmem: the workers-1 case
//     demonstrates the allocation-lean ridge path (the allocating path
//     ran this fixture at ~131 ms/op and 751,971 allocs/op), the sweep
//     demonstrates multicore scaling on machines with spare cores.
//   - patterned/workers-N: the 30×1288 shape of patternedEntries, where
//     1254 columns have one observed entry and all columns together show
//     33 distinct observed-row patterns.
func BenchmarkComplete(b *testing.B) {
	bench := func(b *testing.B, obs []Entry, rows, cols int) {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
				cfg := DefaultConfig(5)
				cfg.Workers = workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Complete(obs, rows, cols, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	bench(b, synthEntries(60, 400, 5, 0.15, 42), 60, 400)
	b.Run("patterned", func(b *testing.B) {
		bench(b, patternedEntries(5, 42), patternedRows, patternedCols)
	})
}

// BenchmarkRidgeUpdate isolates the per-row ridge sub-solve, the innermost
// kernel of every ALS sweep. The seed allocated features/targets/Gram/
// Cholesky storage on every call; with a warm scratch it allocates nothing.
func BenchmarkRidgeUpdate(b *testing.B) {
	g := rng.New(7)
	opposite := randomFactor(400, 5, 1, g)
	entries := make([]Entry, 60)
	for i := range entries {
		entries[i] = Entry{Row: 0, Col: i * 6, Val: g.Normal(0, 1)}
	}
	dst := make([]float64, 5)
	sc := newALSScratch(5)
	// Warm the scratch so the steady-state zero-allocation path is measured.
	if err := ridgeUpdate(entries, opposite, dst, 0.01, true, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ridgeUpdate(entries, opposite, dst, 0.01, true, sc); err != nil {
			b.Fatal(err)
		}
	}
}
