package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// uniqueSystem is one ridge system of a RidgeSolveUniqueInto call.
type uniqueSystem struct {
	features [][]float64
	targets  []float64
	lambda   float64
}

// checkUniqueSolve solves the systems, at most four, with
// RidgeSolveUniqueInto on every kernel body into rows with canaries around
// them. Each system's row must bit-equal RidgeSolveInto on the system
// alone (see sameFloat for anyNaN). When RidgeSolveInto fails on some
// system, the call must return the first such system's error and leave
// every row as it was. It reports whether every system solved.
func checkUniqueSolve(t *testing.T, what string, r int, systems []uniqueSystem, anyNaN bool) bool {
	t.Helper()
	m := len(systems)
	var all [][]float64
	var targets, lambdas []float64
	var counts []int
	want := make([][]float64, m)
	var wantErr error
	for c, sys := range systems {
		all = append(all, sys.features...)
		targets = append(targets, sys.targets...)
		counts = append(counts, len(sys.features))
		lambdas = append(lambdas, sys.lambda)
		want[c] = make([]float64, r)
		if err := RidgeSolveInto(sys.features, sys.targets, sys.lambda, want[c], NewRidgeScratch(r)); err != nil && wantErr == nil {
			wantErr = err
		}
	}
	features := NewFeatureRows(all, r)
	kernelBodies(t, func(t *testing.T, body string) {
		dst, rows := canaryRows(m, r)
		// A scratch sized for another rank, so both growing and reusing
		// it are exercised across calls.
		s := NewRidgeScratch(1 + (r+3)%8)
		err := RidgeSolveUniqueInto(features, targets, counts, lambdas, dst, rows, s)
		if err != wantErr {
			t.Fatalf("%s %s: error %v, RidgeSolveInto's first %v", body, what, err, wantErr)
		}
		if err != nil {
			checkCanaries(t, body+" "+what, dst, nil)
			return
		}
		checkCanaries(t, body+" "+what, dst, rows)
		for c := range systems {
			for i, w := range want[c] {
				if got := dst.At(rows[c], i); !sameFloat(got, w, anyNaN) {
					t.Fatalf("%s %s system %d of %d, entry %d: %v (%#x), RidgeSolveInto %v (%#x)",
						body, what, c, m, i, got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
		}
	})
	return wantErr == nil
}

// TestRidgeSolveUniqueMatchesSingle pins the unique kernel on both bodies
// to one RidgeSolveInto per system, for ranks 1–8 (the vector Gram body's
// registers and the portable one above them), one to four systems of one
// to nine features each, and every mix of counts the seeded draws give.
// Targets include signed zeros, infinities, NaNs of two payloads,
// subnormals and MaxFloat64; a third of the cases give features special
// values too, where they may fail to factor.
func TestRidgeSolveUniqueMatchesSingle(t *testing.T) {
	g := rand.New(rand.NewSource(17))
	solved := 0
	for r := 1; r <= 8; r++ {
		for m := 1; m <= UniqueLanes; m++ {
			for rep := 0; rep < 12; rep++ {
				systems := make([]uniqueSystem, m)
				for c := range systems {
					n := 1 + g.Intn(9)
					features := randomFeatures(g, n, r)
					if rep%3 == 0 {
						for _, f := range features {
							f[g.Intn(r)] = gramOperand(g)
						}
					}
					targets := make([]float64, n)
					for q := range targets {
						targets[q] = wideOperand(g)
					}
					systems[c] = uniqueSystem{features, targets, math.Pow(2, float64(g.Intn(12)-8))}
				}
				if checkUniqueSolve(t, fmt.Sprintf("rank %d systems %d case %d", r, m, rep), r, systems, !nanPayloadsPinned) {
					solved++
				}
			}
		}
	}
	if solved < 300 {
		t.Fatalf("only %d of 384 cases factored", solved)
	}
}

// TestRidgeSolveUniqueNotPositiveDefinite puts a system whose Gram matrix
// is not positive definite, with a NaN pivot in a later column, at every
// position of one to four systems, alone and followed by a system whose
// first pivot is negative: the call must return RidgeSolveInto's
// ErrNotPositiveDefinite and store nothing.
func TestRidgeSolveUniqueNotPositiveDefinite(t *testing.T) {
	const r = 4
	g := rand.New(rand.NewSource(18))
	ordinary := func() uniqueSystem {
		features := randomFeatures(g, 3, r)
		return uniqueSystem{features, []float64{1, -2, 0.5}, 0.25}
	}
	negative := ordinary()
	negative.lambda = -1e6
	nan := ordinary()
	nan.features[1][2] = math.Inf(1)
	for _, bad := range []uniqueSystem{negative, nan} {
		if err := RidgeSolveInto(bad.features, bad.targets, bad.lambda, make([]float64, r), NewRidgeScratch(r)); err != ErrNotPositiveDefinite {
			t.Fatalf("fixture solves alone: %v", err)
		}
	}
	for m := 1; m <= UniqueLanes; m++ {
		for at := 0; at < m; at++ {
			systems := make([]uniqueSystem, m)
			for c := range systems {
				systems[c] = ordinary()
			}
			systems[at] = nan
			checkUniqueSolve(t, fmt.Sprintf("systems %d, NaN pivot at %d", m, at), r, systems, false)
			if at+1 < m {
				systems[at+1] = negative
				checkUniqueSolve(t, fmt.Sprintf("systems %d, NaN pivot at %d then negative", m, at), r, systems, false)
			}
		}
	}
}

// TestRidgeSolveUniqueNoObservations: a system with no features fails as
// RidgeSolveInto does, and nothing is stored.
func TestRidgeSolveUniqueNoObservations(t *testing.T) {
	const r = 3
	features := NewFeatureRows(randomFeatures(rand.New(rand.NewSource(19)), 2, r), r)
	kernelBodies(t, func(t *testing.T, body string) {
		dst, rows := canaryRows(2, r)
		err := RidgeSolveUniqueInto(features, []float64{1, 2}, []int{2, 0}, []float64{1, 1}, dst, rows, NewRidgeScratch(r))
		if err != ErrRidgeNoObservations {
			t.Fatalf("%s: error %v, want ErrRidgeNoObservations", body, err)
		}
		checkCanaries(t, body, dst, nil)
	})
}

func TestRidgeSolveUniqueZeroAlloc(t *testing.T) {
	features, targets := ridgeFixture(14, 5)
	fr := NewFeatureRows(features, 5)
	counts, lambdas := []int{2, 5, 3, 4}, []float64{0.02, 0.05, 0.03, 0.04}
	dst, rows := canaryRows(4, 5)
	s := NewRidgeScratch(5)
	kernelBodies(t, func(t *testing.T, body string) {
		allocs := testing.AllocsPerRun(50, func() {
			if err := RidgeSolveUniqueInto(fr, targets, counts, lambdas, dst, rows, s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RidgeSolveUniqueInto allocated %v times per run, want 0", body, allocs)
		}
	})
}

// FuzzRidgeSolveUnique decodes a rank (1–8), a system count (1–4) and each
// system's feature count (1–9) and weight, and then the features and the
// targets as raw float64 bits from arbitrary bytes. Every system must get
// RidgeSolveInto's bits on both bodies, or the call RidgeSolveInto's first
// error with nothing stored. The seed corpus is in
// testdata/fuzz/FuzzRidgeSolveUnique. Any NaN matches any NaN here (see
// nanPayloadsPinned); TestRidgeSolveUniqueMatchesSingle pins the payloads.
func FuzzRidgeSolveUnique(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		r, m := 1+int(data[0]%8), 1+int(data[1]%UniqueLanes)
		head := data[2:10]
		ops := data[10:]
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
		systems := make([]uniqueSystem, m)
		for c := range systems {
			n := 1 + int(head[2*c]%9)
			features := make([][]float64, n)
			for q := range features {
				features[q] = make([]float64, r)
				for k := range features[q] {
					if v := operand(); !math.IsNaN(v) {
						features[q][k] = v
					}
				}
			}
			targets := make([]float64, n)
			for q := range targets {
				targets[q] = operand()
			}
			systems[c] = uniqueSystem{features, targets, float64(1+int(head[2*c+1])) / 64}
		}
		checkUniqueSolve(t, "fuzz", r, systems, true)
	})
}

// BenchmarkRidgeSolveUnique solves four systems of the warm_mc shape's
// unique rows, rank 5 over 2–5 entries each, through each kernel body:
// "unique" is one RidgeSolveUniqueInto call, "single" four RidgeSolveInto
// calls and the copies of their solutions into the rows.
func BenchmarkRidgeSolveUnique(b *testing.B) {
	g := rand.New(rand.NewSource(20))
	counts := []int{2, 5, 3, 4}
	features := randomFeatures(g, 14, benchRank)
	fr := NewFeatureRows(features, benchRank)
	targets := make([]float64, len(features))
	for i := range targets {
		targets[i] = g.NormFloat64()
	}
	lambdas := []float64{0.02, 0.05, 0.03, 0.04}
	dst, rows := canaryRows(len(counts), benchRank)
	s := NewRidgeScratch(benchRank)
	for _, body := range []string{"go", "simd"} {
		b.Run("unique/"+body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				if err := RidgeSolveUniqueInto(fr, targets, counts, lambdas, dst, rows, s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("single/"+body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				at := 0
				for c, n := range counts {
					if err := RidgeSolveInto(features[at:at+n], targets[at:at+n], lambdas[c], dst.Row(rows[c]), s); err != nil {
						b.Fatal(err)
					}
					at += n
				}
			}
		})
	}
}
