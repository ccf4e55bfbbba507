package shapley

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// cardinalityGame returns |S|²: a superadditive utility with known
// structure; all players are symmetric so all Shapley values are equal.
func cardinalityGame(mask uint64) float64 {
	c := float64(bits.OnesCount64(mask))
	return c * c
}

func TestExactSymmetricGame(t *testing.T) {
	n := 5
	v := Exact(n, cardinalityGame)
	// Balance: Σv = U(full) − U(∅) = 25.
	var sum float64
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum-25) > 1e-9 {
		t.Fatalf("balance violated: Σv = %v, want 25", sum)
	}
	for i := 1; i < n; i++ {
		if math.Abs(v[i]-v[0]) > 1e-9 {
			t.Fatalf("symmetric players valued differently: %v", v)
		}
	}
}

func TestExactAdditiveGame(t *testing.T) {
	// U(S) = Σ_{i∈S} wᵢ is additive: v(i) = wᵢ exactly.
	w := []float64{3, -1, 2, 0.5}
	u := func(mask uint64) float64 {
		var s float64
		for i := range w {
			if mask&(1<<uint(i)) != 0 {
				s += w[i]
			}
		}
		return s
	}
	v := Exact(len(w), u)
	for i := range w {
		if math.Abs(v[i]-w[i]) > 1e-9 {
			t.Fatalf("additive game: v = %v, want %v", v, w)
		}
	}
}

func TestExactZeroElement(t *testing.T) {
	// Player 2 contributes nothing: U ignores its membership.
	u := func(mask uint64) float64 {
		return float64(bits.OnesCount64(mask &^ 0b100))
	}
	v := Exact(3, u)
	if math.Abs(v[2]) > 1e-12 {
		t.Fatalf("null player valued %v, want 0", v[2])
	}
}

func TestExactMatchesPermutationEnumeration(t *testing.T) {
	// Property: the subset formula agrees with the n! permutation average
	// on random games.
	f := func(seed int64) bool {
		n := 3 + int((seed%3+3))%3 // 3..5
		vals := make([]float64, 1<<uint(n))
		s := uint64(seed)
		for i := range vals {
			s = s*2862933555777941757 + 3037000493
			vals[i] = float64(int64(s>>20)) / float64(1<<43)
		}
		vals[0] = 0
		u := func(mask uint64) float64 { return vals[mask] }
		a := Exact(n, u)
		b := ExactOnPermutations(n, u)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestExactBalanceProperty(t *testing.T) {
	// Property: Σᵢ v(i) = U(full) − U(∅) for random games.
	f := func(seed int64) bool {
		n := 4
		vals := make([]float64, 1<<uint(n))
		s := uint64(seed)
		for i := range vals {
			s = s*6364136223846793005 + 1442695040888963407
			vals[i] = float64(int64(s>>20)) / float64(1<<43)
		}
		u := func(mask uint64) float64 { return vals[mask] }
		v := Exact(n, u)
		var sum float64
		for _, x := range v {
			sum += x
		}
		return math.Abs(sum-(vals[len(vals)-1]-vals[0])) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExactSymmetryProperty(t *testing.T) {
	// Games that treat players 0 and 1 identically must value them equally.
	u := func(mask uint64) float64 {
		// Depends only on |S| and membership of player 2.
		c := float64(bits.OnesCount64(mask))
		if mask&0b100 != 0 {
			return c * 2
		}
		return c
	}
	v := Exact(3, u)
	if math.Abs(v[0]-v[1]) > 1e-12 {
		t.Fatalf("symmetric players 0,1 valued %v, %v", v[0], v[1])
	}
}

func TestExactBadNPanics(t *testing.T) {
	for _, n := range []int{0, -1, 21} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Exact(%d) should panic", n)
				}
			}()
			Exact(n, cardinalityGame)
		}()
	}
}

func TestExactOnPermutationsBadNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExactOnPermutations(9, cardinalityGame)
}

func TestSinglePlayer(t *testing.T) {
	u := func(mask uint64) float64 {
		if mask == 1 {
			return 4
		}
		return 0
	}
	v := Exact(1, u)
	if math.Abs(v[0]-4) > 1e-12 {
		t.Fatalf("single player value %v, want 4", v[0])
	}
}

// ExactOnPermutations computes the Shapley value of the same utility by
// averaging marginal contributions over all n! permutations. It is an
// O(n!·n) reference implementation that cross-validates Exact; practical
// only for n ≤ 8.
func ExactOnPermutations(n int, u func(mask uint64) float64) []float64 {
	if n <= 0 || n > 8 {
		panic(fmt.Sprintf("shapley: permutation enumeration supports 1..8 players, got %d", n))
	}
	values := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	count := 0
	var visit func(k int)
	visit = func(k int) {
		if k == n {
			count++
			var mask uint64
			for _, p := range perm {
				bit := uint64(1) << uint(p)
				values[p] += u(mask|bit) - u(mask)
				mask |= bit
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			visit(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	visit(0)
	inv := 1 / float64(count)
	for i := range values {
		values[i] *= inv
	}
	return values
}
