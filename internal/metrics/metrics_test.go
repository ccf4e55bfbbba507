package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelativeDifference(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{1, 1, 0},
		{0, 0, 0},
		{2, 1, 0.5},
		{1, 2, 0.5},
		{-1, 1, 2},
		{0, 5, 1},
	}
	for _, tc := range cases {
		if got := RelativeDifference(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("RelativeDifference(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRelativeDifferenceSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return RelativeDifference(a, b) == RelativeDifference(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{10, 1},
	}
	for _, tc := range cases {
		if got := e.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("ECDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		e := NewECDF(clean)
		prev := -1.0
		for _, x := range []float64{-10, -1, 0, 0.5, 1, 10} {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(1) != 0 {
		t.Fatal("empty ECDF must be 0 everywhere")
	}
}

func TestRanksSimple(t *testing.T) {
	r := Ranks([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
}

func TestSpearmanReversed(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{5, 4, 3, 2, 1}
	if got := Spearman(a, b); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Spearman = %v, want -1", got)
	}
}

func TestSpearmanMonotoneInvariance(t *testing.T) {
	// Property: Spearman is invariant to strictly monotone transforms.
	f := func(xs []float64) bool {
		if len(xs) < 3 {
			return true
		}
		a := make([]float64, 0, len(xs))
		seen := map[float64]bool{}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || seen[x] {
				continue
			}
			seen[x] = true
			a = append(a, math.Mod(x, 1e6))
		}
		if len(a) < 3 {
			return true
		}
		b := make([]float64, len(a))
		for i, x := range a {
			b[i] = math.Atan(x) * 3 // strictly increasing
		}
		return math.Abs(Spearman(a, b)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanConstantIsZero(t *testing.T) {
	if got := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant input Spearman = %v, want 0", got)
	}
}

func TestSpearmanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Spearman([]float64{1}, []float64{1, 2})
}

func TestSpearmanRange(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n < 2 {
			return true
		}
		a, b := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
				return true
			}
			a[i], b[i] = xs[i], ys[i]
		}
		rho := Spearman(a, b)
		return rho >= -1-1e-9 && rho <= 1+1e-9 && !math.IsNaN(rho)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int
		want float64
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 1},
		{[]int{1, 2}, []int{3, 4}, 0},
		{[]int{1, 2, 3}, []int{2, 3, 4}, 0.5},
		{nil, nil, 1},
		{[]int{1}, nil, 0},
		{[]int{1, 1, 2}, []int{1, 2}, 1}, // duplicates ignored
	}
	for _, tc := range cases {
		if got := Jaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Jaccard(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	// Property: symmetric, in [0,1], 1 iff equal sets.
	f := func(a, b []int8) bool {
		as := make([]int, len(a))
		bs := make([]int, len(b))
		for i, x := range a {
			as[i] = int(x)
		}
		for i, x := range b {
			bs[i] = int(x)
		}
		j1 := Jaccard(as, bs)
		j2 := Jaccard(bs, as)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBottomK(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	got := BottomK(v, 2)
	want := []int{1, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("BottomK = %v, want %v", got, want)
	}
}

func TestBottomKTiesDeterministic(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	got := BottomK(v, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie-broken BottomK = %v, want [0 1]", got)
	}
}

func TestTopK(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	got := TopK(v, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("TopK = %v, want [0 2]", got)
	}
}

func TestTopBottomComplement(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		seen := map[float64]bool{}
		for _, x := range xs {
			// Distinct finite values only: with ties both TopK and BottomK
			// prefer low indices, so complementarity holds only tie-free.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && !seen[x] {
				seen[x] = true
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		k := len(clean) / 2
		bottom := BottomK(clean, k)
		top := TopK(clean, len(clean)-k)
		all := append(append([]int(nil), bottom...), top...)
		sort.Ints(all)
		for i, x := range all {
			if x != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBottomKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BottomK([]float64{1}, 2)
}
