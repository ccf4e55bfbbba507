package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

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

// singleSolve is one ridge solve against the factor l, the row-at-a-time
// way: Aᵀb summed one feature row at a time, then CholeskySolveInto. It is
// the reference every system of a wide solve must match.
func singleSolve(features [][]float64, targets []float64, l *Dense) []float64 {
	r := l.rows
	rhs := make([]float64, r)
	for row, f := range features {
		t := targets[row]
		for i, v := range f[:r] {
			rhs[i] += v * t
		}
	}
	x := make([]float64, r)
	CholeskySolveInto(l, rhs, x, make([]float64, r))
	return x
}

// interleave lays m systems' targets out entry-major, as
// RidgeSolveWideInto reads them.
func interleave(targets [][]float64, n int) []float64 {
	m := len(targets)
	out := make([]float64, n*m)
	for c, t := range targets {
		for q, v := range t {
			out[q*m+c] = v
		}
	}
	return out
}

// canaryRows returns a matrix of 2m+1 rank-r rows filled with guard and
// the m rows that systems are stored into, in descending order with a
// canary row between any two and at both ends, so a store into the wrong
// row or past the end of one shows.
func canaryRows(m, r int) (*Dense, []int) {
	dst := NewDense(2*m+1, r)
	for i := range dst.data {
		dst.data[i] = guard
	}
	rows := make([]int, m)
	for c := range rows {
		rows[c] = 2*(m-c) - 1
	}
	return dst, rows
}

// guard fills the buffers around a kernel's outputs.
const guard = 1234.5

// checkCanaries fails unless every row of dst outside rows still holds
// guard in every entry.
func checkCanaries(t *testing.T, what string, dst *Dense, rows []int) {
	t.Helper()
	stored := map[int]bool{}
	for _, i := range rows {
		stored[i] = true
	}
	for i := 0; i < dst.rows; i++ {
		if stored[i] {
			continue
		}
		for j, v := range dst.Row(i) {
			if v != guard {
				t.Fatalf("%s: canary row %d entry %d holds %v", what, i, j, v)
			}
		}
	}
}

// checkWideSolve factors the features and solves the targets' systems with
// RidgeSolveWideInto on every kernel body, requiring each system to
// bit-equal singleSolve (see sameFloat for anyNaN), both in the entry-major
// solutions and in the system's factor row, with every other row and
// everything around the solutions untouched. It reports false when the
// features do not factor.
func checkWideSolve(t *testing.T, what string, features [][]float64, targets [][]float64, lambda float64, anyNaN bool) bool {
	t.Helper()
	r, n, m := len(features[0]), len(features), len(targets)
	fr := NewFeatureRows(features, r)
	l := NewDense(r, r)
	if err := RidgeFactorInto(fr, lambda, l, NewRidgeScratch(r)); err != nil {
		return false
	}
	wide := interleave(targets, n)
	want := make([][]float64, m)
	for c := range want {
		want[c] = singleSolve(features, targets[c], l)
	}
	kernelBodies(t, func(t *testing.T, body string) {
		// Surround x with guards, so a store outside it shows.
		buf := make([]float64, r*m+8)
		for i := range buf {
			buf[i] = guard
		}
		x := buf[4 : 4+r*m]
		dst, rows := canaryRows(m, r)
		RidgeSolveWideInto(fr, wide, l, x, dst, rows)
		for _, g := range append(buf[:4:4], buf[4+r*m:]...) {
			if g != guard {
				t.Fatalf("%s %s: a store left x", body, what)
			}
		}
		checkCanaries(t, body+" "+what, dst, rows)
		for c := range want {
			for i, w := range want[c] {
				if got := x[i*m+c]; !sameFloat(got, w, anyNaN) {
					t.Fatalf("%s %s system %d of %d, entry %d: %v (%#x), single solve %v (%#x)",
						body, what, c, m, i, got, math.Float64bits(got), w, math.Float64bits(w))
				}
				if got := dst.At(rows[c], i); math.Float64bits(got) != math.Float64bits(x[i*m+c]) {
					t.Fatalf("%s %s system %d of %d, entry %d: row holds %v (%#x), solution %v (%#x)",
						body, what, c, m, i, got, math.Float64bits(got), x[i*m+c], math.Float64bits(x[i*m+c]))
				}
			}
		}
	})
	return true
}

// wideOperand draws mostly ordinary values and one in four from
// specialDotValues: signed zeros, infinities, NaNs of two payloads,
// subnormals and MaxFloat64.
func wideOperand(g *rand.Rand) float64 {
	if g.Intn(4) == 0 {
		return specialDotValues[g.Intn(len(specialDotValues))]
	}
	return g.NormFloat64() * math.Pow(2, float64(g.Intn(20)-10))
}

// TestRidgeSolveWideMatchesSingle pins the wide kernel on both bodies to
// one single solve per system, for ranks 1–12 and 0–70 systems, so every
// remainder of four systems meets every rank. Targets include signed
// zeros, infinities, NaNs of two payloads, subnormals and MaxFloat64;
// features include the non-NaN ones where they still factor.
func TestRidgeSolveWideMatchesSingle(t *testing.T) {
	g := rand.New(rand.NewSource(11))
	for r := 1; r <= 12; r++ {
		for m := 0; m <= 70; m++ {
			n := 1 + g.Intn(9)
			features := randomFeatures(g, n, r)
			if m%3 == 0 {
				for _, f := range features {
					f[g.Intn(r)] = gramOperand(g)
				}
			}
			targets := make([][]float64, m)
			for c := range targets {
				targets[c] = make([]float64, n)
				for q := range targets[c] {
					targets[c][q] = wideOperand(g)
				}
			}
			lambda := math.Pow(2, float64(g.Intn(12)-8))
			what := fmt.Sprintf("rank %d rows %d", r, n)
			if !checkWideSolve(t, what, features, targets, lambda, !nanPayloadsPinned) {
				// Special features that do not factor: the same targets
				// over ordinary features.
				if !checkWideSolve(t, what, randomFeatures(g, n, r), targets, lambda, !nanPayloadsPinned) {
					t.Fatalf("%s: ordinary features with λ=%v do not factor", what, lambda)
				}
			}
		}
	}
}

// rowLoopGram is the row-at-a-time accumulation ridgeGram replaces: the
// lower triangle of AᵀA + λI and Aᵀ targets.
func rowLoopGram(features [][]float64, targets []float64, lambda float64) (gram, rhs []float64) {
	r := len(features[0])
	gram, rhs = make([]float64, r*r), make([]float64, r)
	for q, f := range features {
		for i := 0; i < r; i++ {
			fi := f[i]
			gi := gram[i*r : i*r+i+1]
			for j := range gi {
				gi[j] += fi * f[j]
			}
			rhs[i] += f[i] * targets[q]
		}
	}
	for i := 0; i < r; i++ {
		gram[i*r+i] += lambda
	}
	return gram, rhs
}

// gramOperand draws like dotOperand but never returns a NaN. Go may
// commute the operands of a floating-point multiply, and when both are NaN
// the hardware keeps the first one's payload, so which of two NaN payloads
// survives a product of two NaN features is not fixed by the source. A NaN
// feature fails the factorization whatever its payload; generated NaNs
// (0·∞, ∞−∞) all share one payload and are still drawn.
func gramOperand(g *rand.Rand) float64 {
	for {
		if v := dotOperand(g); !math.IsNaN(v) {
			return v
		}
	}
}

// checkGram runs ridgeGram on every kernel body and requires the lower
// triangle and Aᵀb to bit-equal the row loop's (see sameFloat for anyNaN),
// with no store past g or b.
func checkGram(t *testing.T, what string, features [][]float64, targets []float64, lambda float64, anyNaN bool) {
	t.Helper()
	r := len(features[0])
	wantG, wantB := rowLoopGram(features, targets, lambda)
	kernelBodies(t, func(t *testing.T, body string) {
		buf := make([]float64, r*r+r+4)
		for i := range buf {
			buf[i] = guard
		}
		g, b := buf[:r*r], buf[r*r:r*r+r]
		ridgeGram(g, b, NewFeatureRows(features, r), targets, lambda)
		for i, v := range buf[r*r+r:] {
			if v != guard {
				t.Fatalf("%s %s: store past b at %d", body, what, i)
			}
		}
		for i := 0; i < r; i++ {
			for j := 0; j <= i; j++ {
				if got, want := g[i*r+j], wantG[i*r+j]; !sameFloat(got, want, anyNaN) {
					t.Fatalf("%s %s: Gram[%d][%d] = %v (%#x), row loop %v (%#x)",
						body, what, i, j, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			if got, want := b[i], wantB[i]; !sameFloat(got, want, anyNaN) {
				t.Fatalf("%s %s: Aᵀb[%d] = %v (%#x), row loop %v (%#x)",
					body, what, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// TestRidgeFactorGramMatchesRowLoop pins the Gram and Aᵀb accumulation of
// both bodies to the row-at-a-time loop bit for bit, for ranks 1–12 (the
// vector body's registers and the portable body above them) and 1–9
// feature rows. Features include infinities, signed zeros, subnormals and
// MaxFloat64; targets add NaNs of two payloads. Entries above the diagonal
// may hold anything, but nothing may be written past g or b.
func TestRidgeFactorGramMatchesRowLoop(t *testing.T) {
	g := rand.New(rand.NewSource(12))
	for r := 1; r <= 12; r++ {
		for n := 1; n <= 9; n++ {
			features := make([][]float64, n)
			targets := make([]float64, n)
			for i := range features {
				features[i] = make([]float64, r)
				for j := range features[i] {
					features[i][j] = gramOperand(g)
				}
				// Half the targets are special, so NaNs of both payloads
				// meet in Aᵀb's sums.
				targets[i] = dotOperand(g)
				if g.Intn(2) == 0 {
					targets[i] = specialDotValues[g.Intn(len(specialDotValues))]
				}
			}
			checkGram(t, fmt.Sprintf("rank %d rows %d", r, n), features, targets, 0.25, !nanPayloadsPinned)
		}
	}
}

func TestRidgeSolveWideZeroAlloc(t *testing.T) {
	features, targets := ridgeFixture(15, 5)
	fr := NewFeatureRows(features, 5)
	l := NewDense(5, 5)
	if err := RidgeFactorInto(fr, 0.1, l, NewRidgeScratch(5)); err != nil {
		t.Fatal(err)
	}
	const m = 7
	wide := interleave([][]float64{targets, targets, targets, targets, targets, targets, targets}, len(targets))
	x := make([]float64, 5*m)
	dst, rows := canaryRows(m, 5)
	kernelBodies(t, func(t *testing.T, body string) {
		allocs := testing.AllocsPerRun(50, func() {
			RidgeSolveWideInto(fr, wide, l, x, dst, rows)
		})
		if allocs != 0 {
			t.Fatalf("%s: RidgeSolveWideInto allocated %v times per run, want 0", body, allocs)
		}
	})
}

// FuzzRidgeSolveWide decodes a rank (1–12), a feature count (1–9), a
// system count (0–70), λ, and then the features and the targets as raw
// float64 bits from arbitrary bytes. Whenever the features factor, the wide
// kernel must give every system a single solve's bits on both bodies, and
// ridgeGram must give the row loop's Gram triangle and Aᵀb. The seed corpus
// is in testdata/fuzz/FuzzRidgeSolveWide. Any NaN matches any NaN here (see
// nanPayloadsPinned): the coverage instrumentation of a -fuzz build changes
// the portable loops' operand order. TestRidgeSolveWideMatchesSingle and
// TestRidgeFactorGramMatchesRowLoop pin the payloads.
func FuzzRidgeSolveWide(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		r, n, m := 1+int(data[0]%12), 1+int(data[1]%9), int(data[2]%71)
		lambda := float64(1+int(data[3])) / 64
		ops := data[4:]
		next := 0
		operand := func() float64 {
			var b [8]byte
			for i := range b {
				if len(ops) > 0 {
					b[i] = ops[next%len(ops)]
					next++
				}
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		features := make([][]float64, n)
		for i := range features {
			features[i] = make([]float64, r)
			for j := range features[i] {
				if v := operand(); !math.IsNaN(v) {
					features[i][j] = v
				}
			}
		}
		targets := make([][]float64, m)
		for c := range targets {
			targets[c] = make([]float64, n)
			for q := range targets[c] {
				targets[c][q] = operand()
			}
		}
		rhs := make([]float64, n)
		if m > 0 {
			rhs = targets[0]
		}
		checkGram(t, "fuzz", features, rhs, lambda, true)
		checkWideSolve(t, "fuzz", features, targets, lambda, true)
	})
}

// residualsByDot is the reference for RidgeResidualsWideInto: system c's
// solution gathered out of x, each prediction a Dot, and the residual
// t − p.
func residualsByDot(features [][]float64, targets, x []float64, m int) []float64 {
	out := make([]float64, len(targets))
	if m == 0 || len(features) == 0 {
		return out
	}
	r := len(x) / m
	col := make([]float64, r)
	for c := 0; c < m; c++ {
		for k := range col {
			col[k] = x[k*m+c]
		}
		for q, f := range features {
			out[q*m+c] = targets[q*m+c] - Dot(f, col)
		}
	}
	return out
}

// checkResiduals runs RidgeResidualsWideInto on every kernel body and
// requires every residual to bit-equal residualsByDot (see sameFloat for
// anyNaN), with no store outside dst.
func checkResiduals(t *testing.T, what string, features [][]float64, targets, x []float64, m int, anyNaN bool) {
	t.Helper()
	want := residualsByDot(features, targets, x, m)
	kernelBodies(t, func(t *testing.T, body string) {
		buf := make([]float64, len(targets)+8)
		for i := range buf {
			buf[i] = guard
		}
		dst := buf[4 : 4+len(targets)]
		RidgeResidualsWideInto(NewFeatureRows(features, len(features[0])), targets, x, m, dst)
		for _, g := range append(buf[:4:4], buf[4+len(targets):]...) {
			if g != guard {
				t.Fatalf("%s %s: a store left dst", body, what)
			}
		}
		for i, w := range want {
			if got := dst[i]; !sameFloat(got, w, anyNaN) {
				t.Fatalf("%s %s: residual %d (entry %d, system %d) = %v (%#x), Dot %v (%#x)",
					body, what, i, i/m, i%m, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
	})
}

// TestRidgeResidualsWideMatchesDot pins the residual kernel on both bodies
// to one Dot per system and entry, for ranks 1–12 and system counts that
// leave every remainder of four after the blocks of sixteen. Solutions,
// targets and features include signed zeros, infinities, NaNs of two
// payloads, subnormals and MaxFloat64.
func TestRidgeResidualsWideMatchesDot(t *testing.T) {
	g := rand.New(rand.NewSource(15))
	for r := 1; r <= 12; r++ {
		for _, m := range []int{0, 1, 3, 4, 5, 17, 64, 70} {
			n := 1 + g.Intn(9)
			features := make([][]float64, n)
			for q := range features {
				features[q] = make([]float64, r)
				for k := range features[q] {
					features[q][k] = dotOperand(g)
				}
			}
			targets, x := make([]float64, n*m), make([]float64, r*m)
			for i := range targets {
				targets[i] = wideOperand(g)
			}
			for i := range x {
				x[i] = wideOperand(g)
			}
			checkResiduals(t, fmt.Sprintf("rank %d rows %d systems %d", r, n, m), features, targets, x, m, !nanPayloadsPinned)
		}
	}
}

func TestRidgeResidualsWideZeroAlloc(t *testing.T) {
	features, targets := ridgeFixture(15, 5)
	fr := NewFeatureRows(features, 5)
	const m = 7
	wide := interleave([][]float64{targets, targets, targets, targets, targets, targets, targets}, len(targets))
	x := make([]float64, 5*m)
	for i := range x {
		x[i] = float64(i) / 8
	}
	dst := make([]float64, len(wide))
	kernelBodies(t, func(t *testing.T, body string) {
		allocs := testing.AllocsPerRun(50, func() {
			RidgeResidualsWideInto(fr, wide, x, m, dst)
		})
		if allocs != 0 {
			t.Fatalf("%s: RidgeResidualsWideInto allocated %v times per run, want 0", body, allocs)
		}
	})
}

// FuzzRidgeResidualsWide decodes a rank (1–12), a feature count (1–9) and
// a system count (0–70), then the features, the targets and the solutions
// as raw float64 bits from arbitrary bytes. The residual kernel must give
// every system and entry the Dot-order residual on both bodies. The seed
// corpus is in testdata/fuzz/FuzzRidgeResidualsWide. Any NaN matches any
// NaN here (see nanPayloadsPinned); TestRidgeResidualsWideMatchesDot pins
// the payloads.
func FuzzRidgeResidualsWide(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r, n, m := 1+int(data[0]%12), 1+int(data[1]%9), int(data[2]%71)
		ops := data[3:]
		next := 0
		operand := func() float64 {
			var b [8]byte
			for i := range b {
				if len(ops) > 0 {
					b[i] = ops[next%len(ops)]
					next++
				}
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		features := make([][]float64, n)
		for q := range features {
			features[q] = make([]float64, r)
			for k := range features[q] {
				features[q][k] = operand()
			}
		}
		targets, x := make([]float64, n*m), make([]float64, r*m)
		for i := range targets {
			targets[i] = operand()
		}
		for i := range x {
			x[i] = operand()
		}
		checkResiduals(t, "fuzz", features, targets, x, m, true)
	})
}

// warmShapes are the ridge systems of the synthetic patterned matrix of
// internal/mc's BenchmarkComplete: rank 5, a W row observing ~65 entries,
// and an H pattern of one entry that ~42 columns share. (A warm_mc job's
// W rows observe 2–6 entries, bar one that observes every column, and
// ~1,250 of its columns share one pattern: BenchmarkRidgeSolveUnique.)
const (
	benchRank    = 5
	benchWRows   = 65
	benchMembers = 42
)

// BenchmarkRidgeFactor forms the Gram matrix and its factor for one W row
// of the patterned shape through each kernel body: "factor" is
// RidgeFactorInto (a shared pattern's factor) and "fused" is RidgeSolveInto,
// which also accumulates Aᵀb and solves (a row whose pattern is unique).
func BenchmarkRidgeFactor(b *testing.B) {
	g := rand.New(rand.NewSource(13))
	features := randomFeatures(g, benchWRows, benchRank)
	targets := make([]float64, benchWRows)
	for i := range targets {
		targets[i] = g.NormFloat64()
	}
	l := NewDense(benchRank, benchRank)
	dst := make([]float64, benchRank)
	s := NewRidgeScratch(benchRank)
	for _, body := range []string{"go", "simd"} {
		b.Run("factor/"+body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			// λ = 0.65 is the default 0.01 weighted by 65 entries.
			for b.Loop() {
				if err := RidgeFactorInto(NewFeatureRows(features, benchRank), 0.65, l, s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fused/"+body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				if err := RidgeSolveInto(features, targets, 0.65, dst, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRidgeSolveWide solves the systems of one H pattern of the
// patterned shape, 42 columns over one shared entry at rank 5, through
// each kernel body, and stores them into their rows.
func BenchmarkRidgeSolveWide(b *testing.B) {
	g := rand.New(rand.NewSource(14))
	features := NewFeatureRows(randomFeatures(g, 1, benchRank), benchRank)
	l := NewDense(benchRank, benchRank)
	if err := RidgeFactorInto(features, 0.01, l, NewRidgeScratch(benchRank)); err != nil {
		b.Fatal(err)
	}
	targets := make([]float64, benchMembers)
	for i := range targets {
		targets[i] = g.NormFloat64()
	}
	x := make([]float64, benchRank*benchMembers)
	dst, rows := canaryRows(benchMembers, benchRank)
	for _, body := range []string{"go", "simd"} {
		b.Run(body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				RidgeSolveWideInto(features, targets, l, x, dst, rows)
			}
		})
	}
}

// BenchmarkRidgeResidualsWide computes the residuals of one H pattern of
// the patterned shape, 42 columns over one shared entry at rank 5, through
// each kernel body.
func BenchmarkRidgeResidualsWide(b *testing.B) {
	g := rand.New(rand.NewSource(16))
	features := NewFeatureRows(randomFeatures(g, 1, benchRank), benchRank)
	targets := make([]float64, benchMembers)
	for i := range targets {
		targets[i] = g.NormFloat64()
	}
	x := make([]float64, benchRank*benchMembers)
	for i := range x {
		x[i] = g.NormFloat64()
	}
	dst := make([]float64, benchMembers)
	for _, body := range []string{"go", "simd"} {
		b.Run(body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				RidgeResidualsWideInto(features, targets, x, benchMembers, dst)
			}
		})
	}
}
