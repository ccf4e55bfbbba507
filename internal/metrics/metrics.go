// Package metrics implements the evaluation statistics the paper reports:
// the relative valuation difference (Eq. 7), empirical CDFs (Fig. 5),
// Spearman's rank correlation (Fig. 6), and the Jaccard coefficient
// (Fig. 7).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// RelativeDifference returns |a−b| / max{a,b} (Eq. 7), the paper's measure
// of how differently two clients with identical data are valued. The paper
// applies it to non-negative valuations; for robustness we use
// max{|a|,|b|} as the denominator and return 0 when both are zero.
func RelativeDifference(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// ECDF is an empirical cumulative distribution function over samples.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the samples (copied, then sorted).
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X ≤ x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Count of samples ≤ x via binary search for the first element > x.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.sorted) }

// Ranks returns the fractional ranks of the values: the smallest value has
// rank 1; ties receive the average of the ranks they span (the standard
// treatment for Spearman's ρ).
func Ranks(values []float64) []float64 {
	n := len(values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && values[idx[j+1]] == values[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns Spearman's rank correlation ρ between a and b, the
// statistic of the noisy-data detection experiment (Fig. 6). It returns 0
// if either input is constant (undefined correlation).
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: spearman length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) < 2 {
		return 0
	}
	return pearson(Ranks(a), Ranks(b))
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Jaccard returns |a ∩ b| / |a ∪ b| for integer sets given as slices
// (duplicates ignored), the statistic of the noisy-label detection
// experiment (Fig. 7). The Jaccard coefficient of two empty sets is 1.
func Jaccard(a, b []int) float64 {
	sa := toSet(a)
	sb := toSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for x := range sa {
		if sb[x] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

func toSet(xs []int) map[int]bool {
	s := make(map[int]bool, len(xs))
	for _, x := range xs {
		s[x] = true
	}
	return s
}

// BottomK returns the indices of the k smallest values (the paper's "set of
// k clients with the lowest evaluations"). Ties are broken by index for
// determinism.
func BottomK(values []float64, k int) []int {
	if k < 0 || k > len(values) {
		panic(fmt.Sprintf("metrics: bottom-%d of %d values", k, len(values)))
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] < values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

// TopK returns the indices of the k largest values, sorted ascending.
func TopK(values []float64, k int) []int {
	if k < 0 || k > len(values) {
		panic(fmt.Sprintf("metrics: top-%d of %d values", k, len(values)))
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}
