// Package shapley implements the paper's valuation metrics: the classical
// (exact) Shapley value, the federated Shapley value FedSV of Wang et al.
// (Definition 2), the paper's completed federated Shapley value ComFedSV
// (Definition 4) with its Monte-Carlo estimator (Algorithm 1), and the
// Observation-1 unfairness probability (Fig. 1).
package shapley

import (
	"fmt"
	"math"
	"math/bits"
)

// binomTable caches ln C(n,k) rows up to the largest n requested.
type binomTable struct {
	lg [][]float64
}

func newBinomTable(n int) *binomTable {
	t := &binomTable{lg: make([][]float64, n+1)}
	for i := 0; i <= n; i++ {
		t.lg[i] = make([]float64, i+1)
		for k := 0; k <= i; k++ {
			t.lg[i][k] = lnChoose(i, k)
		}
	}
	return t
}

// choose returns C(n,k) as a float64.
func (t *binomTable) choose(n, k int) float64 {
	return math.Exp(t.lg[n][k])
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// Exact computes the classical Shapley value (Eq. 5 with c = 1/N, the
// normalization used by the paper) for a utility function over subsets of
// n ≤ 20 players given as bitmasks. u(0) is the empty-coalition utility.
func Exact(n int, u func(mask uint64) float64) []float64 {
	if n <= 0 || n > 20 {
		panic(fmt.Sprintf("shapley: exact computation supports 1..20 players, got %d", n))
	}
	bt := newBinomTable(n)
	values := make([]float64, n)
	full := uint64(1)<<uint(n) - 1
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		rest := full &^ bit
		var total float64
		// Enumerate all subsets S of I\{i} including the empty set.
		for s := uint64(0); ; s = (s - rest) & rest {
			size := bits.OnesCount64(s)
			w := 1 / (float64(n) * bt.choose(n-1, size))
			total += w * (u(s|bit) - u(s))
			if s == rest {
				break
			}
		}
		values[i] = total
	}
	return values
}
