package mat

import (
	"math"
	"testing"
)

// spdFixture builds a well-conditioned SPD matrix AᵀA + I and a rhs.
func spdFixture(n int) (*Dense, []float64) {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64((i*7+j*3)%5)-2)
		}
	}
	spd := Mul(a.T(), a)
	for i := 0; i < n; i++ {
		spd.Add(i, i, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i) - 1.5
	}
	return spd, b
}

func TestCholeskyIntoMatchesCholesky(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		spd, _ := spdFixture(n)
		want, err := Cholesky(spd)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := NewDense(n, n)
		// Poison the destination to prove stale contents are overwritten.
		for i := range got.data {
			got.data[i] = 1e9
		}
		if err := CholeskyInto(got, spd); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want.data {
			if want.data[i] != got.data[i] {
				t.Fatalf("n=%d: factor differs at %d: %v vs %v", n, i, want.data[i], got.data[i])
			}
		}
	}
}

func TestCholeskyIntoRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if err := CholeskyInto(NewDense(2, 2), a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolveIntoMatchesCholeskySolve(t *testing.T) {
	spd, b := spdFixture(6)
	l, err := Cholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	want := CholeskySolve(l, b)
	x := make([]float64, 6)
	y := make([]float64, 6)
	CholeskySolveInto(l, b, x, y)
	for i := range want {
		if want[i] != x[i] {
			t.Fatalf("solution differs at %d: %v vs %v", i, want[i], x[i])
		}
	}
}

func ridgeFixture(rows, r int) ([][]float64, []float64) {
	features := make([][]float64, rows)
	targets := make([]float64, rows)
	for i := range features {
		f := make([]float64, r)
		for j := range f {
			f[j] = float64((i*5+j*11)%7) - 3
		}
		features[i] = f
		targets[i] = float64(i%4) - 1.5
	}
	return features, targets
}

func TestRidgeSolveIntoMatchesRidgeSolve(t *testing.T) {
	for _, r := range []int{1, 3, 5} {
		features, targets := ridgeFixture(12, r)
		want, err := RidgeSolve(features, targets, 0.1)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		dst := make([]float64, r)
		if err := RidgeSolveInto(features, targets, 0.1, dst, NewRidgeScratch(r)); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		for i := range want {
			if want[i] != dst[i] {
				t.Fatalf("r=%d: solution differs at %d: %v vs %v", r, i, want[i], dst[i])
			}
		}
	}
}

// TestRidgeScratchReuseAcrossRanks drives one scratch through shrinking and
// growing ranks; every solve must still match the allocating path.
func TestRidgeScratchReuseAcrossRanks(t *testing.T) {
	s := NewRidgeScratch(2)
	for _, r := range []int{4, 2, 4, 1, 6} {
		features, targets := ridgeFixture(10, r)
		want, err := RidgeSolve(features, targets, 0.05)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		dst := make([]float64, r)
		if err := RidgeSolveInto(features, targets, 0.05, dst, s); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		for i := range want {
			if want[i] != dst[i] {
				t.Fatalf("r=%d: solution differs at %d: %v vs %v", r, i, want[i], dst[i])
			}
		}
	}
}

func TestRidgeSolveIntoNoObservations(t *testing.T) {
	if err := RidgeSolveInto(nil, nil, 0.1, nil, NewRidgeScratch(1)); err != ErrRidgeNoObservations {
		t.Fatalf("err = %v, want ErrRidgeNoObservations", err)
	}
}

// TestRidgeSolveIntoZeroAlloc pins the hot-path contract: a warm scratch
// solves without allocating at all.
func TestRidgeSolveIntoZeroAlloc(t *testing.T) {
	features, targets := ridgeFixture(15, 5)
	s := NewRidgeScratch(5)
	dst := make([]float64, 5)
	allocs := testing.AllocsPerRun(50, func() {
		if err := RidgeSolveInto(features, targets, 0.1, dst, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RidgeSolveInto allocated %v times per run, want 0", allocs)
	}
}

// TestRidgeFactorSolveMatchesRidgeSolveInto: one factor shared by several
// solves over the same features gives every solve the bits of a fused
// RidgeSolveInto, whatever the factor buffer held before.
func TestRidgeFactorSolveMatchesRidgeSolveInto(t *testing.T) {
	for _, r := range []int{1, 3, 5} {
		features, targets := ridgeFixture(12, r)
		l := NewDense(r, r)
		for i := range l.data {
			l.data[i] = 1e9
		}
		if err := RidgeFactorInto(features, 0.3, l, NewRidgeScratch(r)); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		// Six target vectors solved as one wide call: a group of four
		// and a tail of two on the vector body.
		const m = 6
		systems := make([][]float64, m)
		for shift := range systems {
			b := make([]float64, len(targets))
			for i := range b {
				b[i] = targets[(i+shift)%len(targets)] * float64(shift+1)
			}
			systems[shift] = b
		}
		got := make([]float64, r*m)
		RidgeSolveWideInto(features, interleave(systems, len(targets)), m, l, got)
		for shift, b := range systems {
			want := make([]float64, r)
			if err := RidgeSolveInto(features, b, 0.3, want, NewRidgeScratch(r)); err != nil {
				t.Fatalf("r=%d: %v", r, err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i*m+shift]) {
					t.Fatalf("r=%d targets %d: solution differs at %d: %v vs %v", r, shift, i, got[i*m+shift], want[i])
				}
			}
		}
	}
	if err := RidgeFactorInto(nil, 0.1, NewDense(1, 1), NewRidgeScratch(1)); err != ErrRidgeNoObservations {
		t.Fatalf("err = %v, want ErrRidgeNoObservations", err)
	}
}
