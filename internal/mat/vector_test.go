package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy result %v, want [7 9]", y)
	}
}

func TestVecOps(t *testing.T) {
	a := []float64{1, 2}
	AddVec(a, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("AddVec = %v", a)
	}
}

func TestCopyVecIndependence(t *testing.T) {
	a := []float64{1, 2}
	b := CopyVec(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("CopyVec must not alias")
	}
}

func TestMeanVecs(t *testing.T) {
	got := MeanVecs([][]float64{{1, 2}, {3, 4}})
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("MeanVecs = %v, want [2 3]", got)
	}
}

func TestMeanVecsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanVecs(nil)
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{[]float64{1, 3, 2}, 1},
		{[]float64{5}, 0},
		{[]float64{2, 2, 2}, 0}, // first wins ties
		{nil, -1},
		{[]float64{-3, -1, -2}, 1},
	}
	for _, tc := range cases {
		if got := ArgMax(tc.in); got != tc.want {
			t.Fatalf("ArgMax(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	// Property: softmax sums to 1, entries in (0,1], shift-invariant,
	// and stable under large logits.
	f := func(a, b, c float64) bool {
		logits := []float64{clampT(a), clampT(b), clampT(c)}
		out := make([]float64, 3)
		Softmax(out, logits)
		var sum float64
		for _, p := range out {
			if p <= 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			return false
		}
		// Shift invariance.
		shifted := []float64{logits[0] + 100, logits[1] + 100, logits[2] + 100}
		out2 := make([]float64, 3)
		Softmax(out2, shifted)
		for i := range out {
			if math.Abs(out[i]-out2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxExtremeLogits(t *testing.T) {
	out := make([]float64, 2)
	Softmax(out, []float64{1000, -1000})
	if math.Abs(out[0]-1) > 1e-12 || out[1] > 1e-12 {
		t.Fatalf("Softmax extreme = %v", out)
	}
}

func clampT(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 50)
}

func TestMeanVecsInto(t *testing.T) {
	vecs := [][]float64{{1, 2, 3}, {4, 5, 7}, {0.1, 0.2, 0.3}}
	want := MeanVecs(vecs)
	got := MeanVecsInto(nil, vecs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: MeanVecsInto %v != MeanVecs %v (must be bit-identical)", i, got[i], want[i])
		}
	}
	// Reuse a dirty, over-sized buffer: same result, same backing array.
	buf := []float64{9, 9, 9, 9, 9}
	got2 := MeanVecsInto(buf, vecs)
	if &got2[0] != &buf[0] {
		t.Fatal("MeanVecsInto reallocated despite sufficient capacity")
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("reused buffer elem %d: %v != %v", i, got2[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { buf = MeanVecsInto(buf, vecs) }); allocs != 0 {
		t.Fatalf("MeanVecsInto with warm buffer allocated %v times per run, want 0", allocs)
	}
}

func TestMeanVecsIntoEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanVecsInto(nil, nil)
}
