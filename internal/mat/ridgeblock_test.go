package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialTargets are right-hand-side values on which a reordered sum or a
// fused multiply-add would show first: signed zeros, subnormals, and
// magnitudes whose products over- or underflow.
var specialTargets = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff),
	1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64,
}

func ridgeTarget(g *rand.Rand) float64 {
	if g.Intn(4) == 0 {
		return specialTargets[g.Intn(len(specialTargets))]
	}
	return g.NormFloat64() * math.Pow(2, float64(g.Intn(20)-10))
}

func randomFeatures(g *rand.Rand, n, r int) [][]float64 {
	features := make([][]float64, n)
	for i := range features {
		f := make([]float64, r)
		for j := range f {
			f[j] = g.NormFloat64() * math.Pow(2, float64(g.Intn(8)-4))
		}
		features[i] = f
	}
	return features
}

// requireSameBits fails unless got and want agree bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkBlockSolve solves four targets with RidgeSolveFactoredBlockInto and
// with four RidgeSolveFactoredInto calls against the same factor and
// requires the same bits. It reports false when the features do not factor.
func checkBlockSolve(t *testing.T, what string, features [][]float64, targets [4][]float64, lambda float64) bool {
	t.Helper()
	r := len(features[0])
	l := NewDense(r, r)
	if err := RidgeFactorInto(features, lambda, l, NewRidgeScratch(r)); err != nil {
		return false
	}
	var got [4][]float64
	for c := range got {
		got[c] = make([]float64, r)
	}
	// Solve the block on a scratch sized for a larger rank, so a wrong
	// stride in the interleaved buffers would show.
	RidgeSolveFactoredBlockInto(features, targets, l, got, NewRidgeScratch(r+3))
	single := NewRidgeScratch(r)
	for c := range targets {
		want := make([]float64, r)
		RidgeSolveFactoredInto(features, targets[c], l, want, single)
		requireSameBits(t, fmt.Sprintf("%s column %d", what, c), got[c], want)
	}
	return true
}

// TestRidgeSolveFactoredBlockMatchesSingle pins the block kernel to four
// single solves for ranks 1–8 and 1–9 feature rows, so every remainder of
// the four-row Gram unroll is reached, with targets that include signed
// zeros, subnormals and values near the overflow and underflow limits.
func TestRidgeSolveFactoredBlockMatchesSingle(t *testing.T) {
	g := rand.New(rand.NewSource(11))
	for r := 1; r <= 8; r++ {
		for n := 1; n <= 9; n++ {
			for trial := 0; trial < 4; trial++ {
				features := randomFeatures(g, n, r)
				var targets [4][]float64
				for c := range targets {
					targets[c] = make([]float64, n)
					for i := range targets[c] {
						targets[c][i] = ridgeTarget(g)
					}
				}
				lambda := math.Pow(2, float64(g.Intn(12)-8))
				if !checkBlockSolve(t, fmt.Sprintf("rank %d rows %d trial %d", r, n, trial), features, targets, lambda) {
					t.Fatalf("rank %d rows %d: features with λ=%v do not factor", r, n, lambda)
				}
			}
		}
	}
}

// seedGram is the row-at-a-time Gram accumulation RidgeFactorInto's
// four-row unroll replaces: the lower triangle of AᵀA + λI.
func seedGram(features [][]float64, lambda float64) []float64 {
	r := len(features[0])
	gd := make([]float64, r*r)
	for _, f := range features {
		for i := 0; i < r; i++ {
			fi := f[i]
			gi := gd[i*r : i*r+i+1]
			for j := range gi {
				gi[j] += fi * f[j]
			}
		}
	}
	for i := 0; i < r; i++ {
		gd[i*r+i] += lambda
	}
	return gd
}

// gramOperand draws like dotOperand but never returns a NaN. Go may
// commute the operands of a floating-point add, and when both are NaN the
// hardware keeps the first one's payload, so which of two NaN payloads
// survives is not fixed by the source. A NaN feature fails the
// factorization whatever its payload; generated NaNs (0·∞, ∞−∞) all share
// one payload and are still drawn.
func gramOperand(g *rand.Rand) float64 {
	for {
		if v := dotOperand(g); !math.IsNaN(v) {
			return v
		}
	}
}

// TestRidgeFactorGramMatchesRowLoop pins the unrolled Gram accumulation to
// the row-at-a-time loop bit for bit, infinities, signed zeros and
// subnormals included.
func TestRidgeFactorGramMatchesRowLoop(t *testing.T) {
	g := rand.New(rand.NewSource(12))
	for r := 1; r <= 8; r++ {
		for n := 1; n <= 9; n++ {
			features := make([][]float64, n)
			for i := range features {
				features[i] = make([]float64, r)
				for j := range features[i] {
					features[i][j] = gramOperand(g)
				}
			}
			s := NewRidgeScratch(r)
			_ = RidgeFactorInto(features, 0.25, NewDense(r, r), s) // the Gram matrix is formed either way
			want := seedGram(features, 0.25)
			for i := 0; i < r; i++ {
				requireSameBits(t, fmt.Sprintf("rank %d rows %d Gram row %d", r, n, i),
					s.gram.data[i*r:i*r+i+1], want[i*r:i*r+i+1])
			}
		}
	}
}

func TestRidgeSolveFactoredBlockZeroAlloc(t *testing.T) {
	features, targets := ridgeFixture(15, 5)
	l := NewDense(5, 5)
	s := NewRidgeScratch(5)
	if err := RidgeFactorInto(features, 0.1, l, s); err != nil {
		t.Fatal(err)
	}
	var dst [4][]float64
	for c := range dst {
		dst[c] = make([]float64, 5)
	}
	tg := [4][]float64{targets, targets, targets, targets}
	allocs := testing.AllocsPerRun(50, func() {
		RidgeSolveFactoredBlockInto(features, tg, l, dst, s)
	})
	if allocs != 0 {
		t.Fatalf("RidgeSolveFactoredBlockInto allocated %v times per run, want 0", allocs)
	}
}

// fuzzSpecials are the 16 operands the top byte values decode to. Like
// gramOperand they hold no NaN: ALS never solves with a NaN target, and
// infinities reach generated NaNs anyway.
var fuzzSpecials = append(append([]float64(nil), specialTargets...), math.Inf(1), math.Inf(-1), 0x1p-1022, 3, -3, 0.5)

// fuzzValue decodes one byte: the top 16 values select special operands,
// the rest are small dyadic numbers.
func fuzzValue(b byte) float64 {
	if b >= 240 {
		return fuzzSpecials[b-240]
	}
	return float64(int(b)-120) / 8
}

// FuzzRidgeSolveBlock decodes a rank (1–8), a feature count (1–9), λ, the
// features and four target vectors from arbitrary bytes. Whenever the
// features factor, the block kernel must give the four single solves' bits.
func FuzzRidgeSolveBlock(f *testing.F) {
	f.Add([]byte{4, 5, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 240, 241, 242, 243, 244})
	f.Add([]byte{0, 8, 0, 200, 100, 245, 246, 247, 248, 249, 250, 251, 252, 253, 254, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r := 1 + int(data[0]%8)
		n := 1 + int(data[1]%9)
		lambda := float64(1+int(data[2])) / 64
		next := 3
		value := func() float64 {
			if next >= len(data) {
				return 0
			}
			next++
			return fuzzValue(data[next-1])
		}
		features := make([][]float64, n)
		for i := range features {
			features[i] = make([]float64, r)
			for j := range features[i] {
				features[i][j] = value()
			}
		}
		var targets [4][]float64
		for c := range targets {
			targets[c] = make([]float64, n)
			for i := range targets[c] {
				targets[c][i] = value()
			}
		}
		checkBlockSolve(t, "fuzz", features, targets, lambda)
	})
}

// BenchmarkRidgeSolveFactored solves four rank-5 columns over 12 shared
// feature rows per op: "single" with four RidgeSolveFactoredInto calls,
// "block" with one RidgeSolveFactoredBlockInto call.
func BenchmarkRidgeSolveFactored(b *testing.B) {
	const r, n = 5, 12
	g := rand.New(rand.NewSource(13))
	features := randomFeatures(g, n, r)
	l := NewDense(r, r)
	s := NewRidgeScratch(r)
	if err := RidgeFactorInto(features, 0.1, l, s); err != nil {
		b.Fatal(err)
	}
	var targets, dst [4][]float64
	for c := range targets {
		targets[c] = make([]float64, n)
		for i := range targets[c] {
			targets[c][i] = g.NormFloat64()
		}
		dst[c] = make([]float64, r)
	}
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := range targets {
				RidgeSolveFactoredInto(features, targets[c], l, dst[c], s)
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RidgeSolveFactoredBlockInto(features, targets, l, dst, s)
		}
	})
}
