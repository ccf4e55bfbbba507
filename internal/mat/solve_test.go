package mat

import (
	"math"
	"testing"
)

func TestCholeskyIntoRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if err := CholeskyInto(NewDense(2, 2), a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
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

// TestRidgeScratchReuseAcrossRanks drives one scratch through shrinking and
// growing ranks; every solve must still match a solve on a fresh scratch.
func TestRidgeScratchReuseAcrossRanks(t *testing.T) {
	s := NewRidgeScratch(2)
	for _, r := range []int{4, 2, 4, 1, 6} {
		features, targets := ridgeFixture(10, r)
		want, err := ridgeSolve(features, targets, 0.05)
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
		fr := NewFeatureRows(features, r)
		if err := RidgeFactorInto(fr, 0.3, l, NewRidgeScratch(r)); err != nil {
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
		dst, rows := canaryRows(m, r)
		RidgeSolveWideInto(fr, interleave(systems, len(targets)), l, got, dst, rows)
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
	if err := RidgeFactorInto(NewFeatureRows(nil, 1), 0.1, NewDense(1, 1), NewRidgeScratch(1)); err != ErrRidgeNoObservations {
		t.Fatalf("err = %v, want ErrRidgeNoObservations", err)
	}
}
