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

// patternedRows × patternedCols is the size of a Monte-Carlo job's utility
// matrix on a 24-client, 30-round run with 60 permutations.
const patternedRows, patternedCols = 30, 1288

// patternedEntries samples a random rank-`rank` matrix of that size on a
// synthetic observation pattern: most columns have one entry, and the 34
// that recur share three row patterns (all rows, and seeded subsets of 10
// and 20 rows). One-entry columns cycle over every row, so the matrix
// shows 33 distinct row patterns and every row of W observes ~42–65
// columns; columns of both kinds are interleaved in a seeded order. This is
// not the pattern such a job gives ALS: serviceEntries is.
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

// TestPatternedEntriesShape pins the shape BenchmarkComplete's patterned
// case claims to have, and that the ALS sweep shares a factor
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

// serviceRows, serviceClients, servicePerms and servicePerRound are the
// shape of the Monte-Carlo jobs perfbench's warm_mc workload values: a
// 24-client run of 30 rounds, the first of which hears every client and
// the others 3, valued with 60 permutations.
const serviceRows, serviceClients, servicePerms, servicePerRound = 30, 24, 60, 3

// serviceEntries samples a random rank-`rank` matrix on the observation
// pattern of such a job, built the way the job builds it: the columns are
// the distinct prefixes of servicePerms seeded permutations of the
// clients, in first-visit order; row 0, the everyone-heard round, observes
// every column, and each later row observes the prefixes inside its own
// seeded selection of servicePerRound clients, entries in row order. So
// each later row observes only a handful of columns, most columns are
// observed by row 0 alone and share one pattern, and the few columns that
// later rows also observe mostly have patterns of their own.
func serviceEntries(rank int, seed int64) (obs []Entry, cols int) {
	g := rng.New(seed)
	seen := map[uint64]bool{}
	var prefixes []uint64
	for range servicePerms {
		var prefix uint64
		for _, c := range g.Perm(serviceClients) {
			prefix |= 1 << c
			if !seen[prefix] {
				seen[prefix] = true
				prefixes = append(prefixes, prefix)
			}
		}
	}
	cols = len(prefixes)
	w := randomFactor(serviceRows, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	for t := 0; t < serviceRows; t++ {
		selected := uint64(1)<<serviceClients - 1
		if t > 0 {
			selected = 0
			for _, c := range g.Perm(serviceClients)[:servicePerRound] {
				selected |= 1 << c
			}
		}
		for j, s := range prefixes {
			if s&selected == s {
				obs = append(obs, Entry{Row: t, Col: j, Val: mat.Dot(w.Row(t), h.Row(j))})
			}
		}
	}
	return obs, cols
}

// TestServiceEntriesShape pins the shape BenchmarkComplete's service case
// claims to share with the matrices warm_mc jobs complete (30 × 1,284–1,297
// with 1,379–1,404 entries; row 0 observes every column and the other rows
// 1–6 each; ~1,250 one-entry columns share one pattern, 2–7 more patterns
// of two or three entries recur, and 25–36 columns of 2–11 entries have
// patterns of their own), and how the ALS plan splits it: all rows of W
// but two, which here observe the same four columns, are unique, so W
// runs one shared factor and groups of four unique rows, and so do H's
// unique columns.
func TestServiceEntriesShape(t *testing.T) {
	obs, cols := serviceEntries(5, 42)
	byRow := make([][]int, serviceRows)
	byCol := make([][]int, cols)
	for _, e := range obs {
		byRow[e.Row] = append(byRow[e.Row], e.Col)
		byCol[e.Col] = append(byCol[e.Col], e.Row)
	}
	minLater, maxLater := cols, 0
	for _, seen := range byRow[1:] {
		minLater, maxLater = min(minLater, len(seen)), max(maxLater, len(seen))
	}
	members := map[string]int{}
	for _, rows := range byCol {
		members[fmt.Sprint(rows)]++
	}
	shared, unique := 0, 0
	for _, n := range members {
		if n > 1 {
			shared++
		} else {
			unique++
		}
	}
	got := fmt.Sprintf("%d×%d, %d entries, row 0 sees %d, later rows %d–%d, {0} has %d columns, %d shared patterns, %d unique",
		serviceRows, cols, len(obs), len(byRow[0]), minLater, maxLater, members["[0]"], shared, unique)
	const want = "30×1293, 1393 entries, row 0 sees 1293, later rows 2–6, {0} has 1255 columns, 5 shared patterns, 30 unique"
	if got != want {
		t.Fatalf("shape %s; want %s", got, want)
	}
	plan := newALSPlan(obs, serviceRows, cols)
	var wLanes, hLanes int
	for _, it := range plan.w.items {
		if plan.w.shared[it.rows[0]] < 0 {
			wLanes++
		}
	}
	for _, it := range plan.h.items {
		if plan.h.shared[it.rows[0]] < 0 {
			hLanes++
		}
	}
	if len(plan.w.reps) != 1 || wLanes != 7 || len(plan.h.reps) != shared || hLanes != (unique+3)/4 {
		t.Fatalf("W: %d shared factors, %d unique groups; H: %d shared factors, %d unique groups; want 1, 7, %d, %d",
			len(plan.w.reps), wLanes, len(plan.h.reps), hLanes, shared, (unique+3)/4)
	}
}

// BenchmarkComplete measures the ALS solver at rank 5 across worker counts
// on three utility-matrix shapes:
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
//   - service/workers-N: the shape of serviceEntries, the pattern the
//     matrices of warm_mc's jobs have: nearly every row of W and ~30
//     columns of H are unique, and W's row 0 has an entry in every
//     column. Solving unique rows four to a register, storing the wide
//     solutions from the kernel and summing the objective's three chains
//     side by side took workers-1 from a median of 7.41 to 5.74 ms/op,
//     and patterned/workers-1 from 5.38 to 4.76, over ten alternating
//     runs each (same host, -cpu 1, 30 iterations a run).
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
	b.Run("service", func(b *testing.B) {
		obs, cols := serviceEntries(5, 42)
		bench(b, obs, serviceRows, cols)
	})
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
		if plan.h.shared[it.rows[0]] < 0 {
			b.Fatalf("item %d of the patterned H side is not a chunk", n)
		}
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
				mat.RidgeResidualsWideInto(plan.h.features(views, it), it.targets, xs[n], len(it.rows), resid[it.at:][:len(it.targets)])
			}
			plan.objective(resid, res.W, res.H, cfg.Lambda)
		}
	})
}
