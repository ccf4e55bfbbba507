package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(7)
	c1 := g.Split(1)
	// Re-derive from a fresh parent: identical labels after identical
	// parent state give identical children.
	g2 := New(7)
	c2 := g2.Split(1)
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split must be deterministic")
		}
	}
}

func TestSplitDifferentLabels(t *testing.T) {
	g := New(7)
	c1 := g.Split(1)
	c2 := g.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("sibling streams matched %d/100 times", same)
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(3)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Normal(2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("sample mean %v, want ≈2", mean)
	}
	if math.Abs(variance-9) > 0.5 {
		t.Fatalf("sample variance %v, want ≈9", variance)
	}
}

func TestNormalVecLength(t *testing.T) {
	g := New(4)
	v := g.NormalVec(17, 0, 1)
	if len(v) != 17 {
		t.Fatalf("NormalVec length %d, want 17", len(v))
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := New(seed)
		n := 1 + int(seed%20+20)%20
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || x >= n || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := New(5)
	s := g.SampleWithoutReplacement(10, 4)
	if len(s) != 4 {
		t.Fatalf("sample size %d, want 4", len(s))
	}
	seen := map[int]bool{}
	for _, x := range s {
		if x < 0 || x >= 10 || seen[x] {
			t.Fatalf("invalid sample %v", s)
		}
		seen[x] = true
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	g := New(5)
	s := g.SampleWithoutReplacement(4, 4)
	seen := map[int]bool{}
	for _, x := range s {
		seen[x] = true
	}
	if len(seen) != 4 {
		t.Fatalf("full sample must cover the population, got %v", s)
	}
}

func TestSampleTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestShuffleIsPermutation(t *testing.T) {
	g := New(8)
	idx := []int{0, 1, 2, 3, 4, 5}
	g.Shuffle(idx)
	seen := make([]bool, 6)
	for _, x := range idx {
		seen[x] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("element %d lost in shuffle", i)
		}
	}
}
