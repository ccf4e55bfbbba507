package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDense(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	if got := m.At(0, 1); got != 3.5 {
		t.Fatalf("At(0,1) = %v, want 3.5", got)
	}
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("after Add, At(0,1) = %v, want 5", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewDense(2, 2)
	cases := []struct {
		name string
		f    func()
	}{
		{"At row", func() { m.At(2, 0) }},
		{"At col", func() { m.At(0, 2) }},
		{"At negative", func() { m.At(-1, 0) }},
		{"Set out of range", func() { m.Set(5, 5, 1) }},
		{"Row out of range", func() { m.Row(3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 3)
	row := m.Row(1)
	row[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row must be a view into the matrix")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims (%d,%d), want (3,2)", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %+v, want %+v", got, want)
	}
}

func TestMulTMatchesMulTranspose(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, -2, 3, 0.5, 5, -6})
	b := NewDenseData(4, 3, []float64{1, 0, 2, -1, 1, 0, 3, 2, 1, 0, 0, 1})
	if !Equal(MulT(a, b), Mul(a, b.T()), 1e-12) {
		t.Fatal("MulT(a,b) != Mul(a, bᵀ)")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestNorms(t *testing.T) {
	m := NewDenseData(2, 2, []float64{3, -4, 0, 0})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v, want 5", got)
	}
}

// cholesky factors a into a fresh matrix through CholeskyInto.
func cholesky(a *Dense) (*Dense, error) {
	l := NewDense(a.rows, a.cols)
	return l, CholeskyInto(l, a)
}

// choleskySolve solves l lᵀ x = b into a fresh vector through
// CholeskySolveInto.
func choleskySolve(l *Dense, b []float64) []float64 {
	x := make([]float64, len(b))
	CholeskySolveInto(l, b, x, make([]float64, len(b)))
	return x
}

// ridgeSolve runs RidgeSolveInto into a fresh vector with a fresh scratch.
func ridgeSolve(features [][]float64, targets []float64, lambda float64) ([]float64, error) {
	dst := make([]float64, len(features[0]))
	return dst, RidgeSolveInto(features, targets, lambda, dst, NewRidgeScratch(len(dst)))
}

// Equal reports whether a and b have the same shape and entries within tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func TestCholeskySolveIdentity(t *testing.T) {
	a := Identity(4)
	b := []float64{1, 2, 3, 4}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := choleskySolve(l, b)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("identity solve x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	// a = L Lᵀ with L = [[2,0],[1,3]] → a = [[4,2],[2,10]].
	// The destination is poisoned to prove stale contents, the strict
	// upper triangle included, are overwritten.
	a := NewDenseData(2, 2, []float64{4, 2, 2, 10})
	l := NewDenseData(2, 2, []float64{1e9, 1e9, 1e9, 1e9})
	if err := CholeskyInto(l, a); err != nil {
		t.Fatal(err)
	}
	want := NewDenseData(2, 2, []float64{2, 0, 1, 3})
	if !Equal(l, want, 1e-12) {
		t.Fatalf("CholeskyInto = %+v, want %+v", l, want)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := cholesky(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestSolveSPDRandomized(t *testing.T) {
	// Property: for random SPD a (built as BᵀB + I) and random x,
	// solving a·y = a·x through a's Cholesky factor gives y ≈ x.
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 1 + int(abs64(seed))%6
		b := NewDense(n, n)
		for i := range b.data {
			b.data[i] = r()
		}
		a := Mul(b.T(), b)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r()
		}
		rhs := make([]float64, n)
		for i := 0; i < n; i++ {
			rhs[i] = Dot(a.Row(i), x)
		}
		l, err := cholesky(a)
		if err != nil {
			return false
		}
		got := choleskySolve(l, rhs)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRidgeSolveShrinksTowardZero(t *testing.T) {
	features := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	targets := []float64{1, 2, 3}
	small, err := ridgeSolve(features, targets, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ridgeSolve(features, targets, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(big) >= Norm2(small) {
		t.Fatalf("large lambda must shrink: ‖big‖=%v ‖small‖=%v", Norm2(big), Norm2(small))
	}
	if Norm2(big) > 1e-3 {
		t.Fatalf("huge lambda should give near-zero solution, got %v", big)
	}
}

func TestRidgeSolveExactFit(t *testing.T) {
	// With tiny lambda and consistent equations, ridge recovers the truth.
	w := []float64{2, -1}
	features := [][]float64{{1, 0}, {0, 1}, {2, 3}, {1, 1}}
	targets := make([]float64, len(features))
	for i, f := range features {
		targets[i] = Dot(f, w)
	}
	got, err := ridgeSolve(features, targets, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1e-6 {
			t.Fatalf("ridge fit = %v, want %v", got, w)
		}
	}
}

func TestRidgeSolveNoObservations(t *testing.T) {
	if err := RidgeSolveInto(nil, nil, 1, nil, NewRidgeScratch(1)); err == nil {
		t.Fatal("expected error for empty system")
	}
}

// newTestRand returns a deterministic pseudo-random generator in [-1,1].
func newTestRand(seed int64) func() float64 {
	state := uint64(seed)*2862933555777941757 + 3037000493
	return func() float64 {
		state = state*2862933555777941757 + 3037000493
		return float64(int64(state>>11))/float64(1<<52) - 1
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == math.MinInt64 {
			return math.MaxInt64
		}
		return -x
	}
	return x
}
