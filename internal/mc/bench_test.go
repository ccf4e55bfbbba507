package mc

import (
	"fmt"
	"sort"
	"testing"

	"comfedsv/internal/mat"
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
// patterned case claims to have, and that the ALS sweep shares a factor
// across its columns: sharing keys on the ordered entry sequence, so the
// 33 row sets must also be 33 shared column patterns covering every
// column, while no two rows of W repeat a pattern.
func TestPatternedEntriesShape(t *testing.T) {
	obs := patternedEntries(5, 42)
	byCol := map[int][]int{}
	for _, e := range obs {
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
	plan := newALSPlan(obs, patternedRows, patternedCols)
	sharedCols := 0
	for _, k := range plan.h.shared {
		if k >= 0 {
			sharedCols++
		}
	}
	if len(plan.h.reps) != 33 || sharedCols != patternedCols || len(plan.w.reps) != 0 {
		t.Fatalf("%d shared column factors over %d columns, %d shared row factors; want 33, %d, 0",
			len(plan.h.reps), sharedCols, len(plan.w.reps), patternedCols)
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
//     33 distinct observed-row patterns, so every H half-sweep factors 33
//     Gram matrices and solves 1288 columns against them, one wide kernel
//     call per pattern. On a 2-CPU x86-64 host (go1.24, -cpu 1, 20
//     iterations a run) workers-1 took 23–35 ms/op solving one column at
//     a time and 13–15 ms/op with four-column block solves (five
//     alternating runs). Over six alternating pairs on a busier day, the
//     AVX2 wide and Gram kernels took it from 18.5–25.1 ms/op (median
//     23.4) with block solves to 9.4–11.9 (median 11.7); the portable
//     body runs it at a median of 22.0. Building the feature views once
//     per restart and taking the stopping objective's residuals from the
//     wide solve's lanes took it from 11.4–13.9 ms/op (median 11.9) to
//     7.7–9.5 (median 8.8) over eight alternating pairs, every pair won.
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

// BenchmarkRidgeUpdate isolates the per-row ridge sub-solve of a row whose
// pattern is unique, the fused solve of ALS's solve pass, over 60 entries
// at rank 5. The features are views into the opposite factor built before
// the loop, as an attempt builds them once; with a warm scratch the solve
// allocates nothing.
func BenchmarkRidgeUpdate(b *testing.B) {
	g := rng.New(7)
	opposite := randomFactor(400, 5, 1, g)
	features := make([][]float64, 60)
	targets := make([]float64, len(features))
	for i := range features {
		features[i] = opposite.Row(i * 6)
		targets[i] = g.Normal(0, 1)
	}
	dst := make([]float64, 5)
	sc := newALSScratch(5)
	// Warm the scratch so the steady-state zero-allocation path is measured.
	if err := ridgeUpdate(features, targets, dst, 0.01, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ridgeUpdate(features, targets, dst, 0.01, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjective times the stopping objective of one ALS sweep on a
// fit of the patterned shape: "objective" recomputes every prediction from
// the factors, as the package-level objective does, and "residuals" runs
// what a sweep now does instead, the wide residual kernel over each H
// chunk's solutions (laid out entry-major before the loop, as the solve
// leaves them) and the sum over the residuals in observation order. Both
// add the same Frobenius penalty.
func BenchmarkObjective(b *testing.B) {
	obs := patternedEntries(5, 42)
	cfg := DefaultConfig(5)
	res, err := Complete(obs, patternedRows, patternedCols, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan := newALSPlan(obs, patternedRows, patternedCols)
	views := plan.h.views(res.W)
	r := cfg.Rank
	xs := make([][]float64, len(plan.h.items))
	for n, it := range plan.h.items {
		m := len(it.rows)
		xs[n] = make([]float64, r*m)
		for c, i := range it.rows {
			for k, v := range res.H.Row(i) {
				xs[n][k*m+c] = v
			}
		}
	}
	resid := make([]float64, len(obs))
	b.Run("objective", func(b *testing.B) {
		for b.Loop() {
			objective(obs, res.W, res.H, cfg.Lambda)
		}
	})
	b.Run("residuals", func(b *testing.B) {
		for b.Loop() {
			for n, it := range plan.h.items {
				mat.RidgeResidualsWideInto(plan.h.features(views, n), it.targets, xs[n], len(it.rows), resid[it.at:][:len(it.targets)])
			}
			plan.objective(resid, res.W, res.H, cfg.Lambda)
		}
	})
}
