package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specialDotValues are the operands on which a reordered or fused sum would
// show first: signed zeros, infinities, NaNs of two payloads and subnormals.
var specialDotValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8_0000_0000_0000),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), 1, -1, math.MaxFloat64,
}

// dotOperand draws mostly ordinary values, with one in eight special.
func dotOperand(g *rand.Rand) float64 {
	if g.Intn(8) == 0 {
		return specialDotValues[g.Intn(len(specialDotValues))]
	}
	return g.NormFloat64() * math.Pow(2, float64(g.Intn(20)-10))
}

// nanPayloadsPinned makes the bit-identity tests compare NaN payloads too.
// Which operand of a multiply or add the compiler puts first decides which
// of two NaN payloads survives; the vector bodies encode the order an
// optimized build of the portable loops (and of Dot) uses. Instrumented
// builds (the race detector, -fuzz coverage) change that order in the Go
// code, so there any NaN matches any NaN.
var nanPayloadsPinned = true

// kernelBodies runs f once per kernel body this host has, portable first,
// and restores the previous setting.
func kernelBodies(t *testing.T, f func(t *testing.T, body string)) {
	was := SetSIMD(false)
	defer SetSIMD(was)
	f(t, "go")
	if !haveSIMD {
		t.Logf("no vector kernel bodies on this host; only the portable body ran")
		return
	}
	SetSIMD(true)
	f(t, "simd")
}

// sameFloat reports whether got and want have the same bits or, with
// anyNaN set, are both NaN.
func sameFloat(got, want float64, anyNaN bool) bool {
	return math.Float64bits(got) == math.Float64bits(want) || anyNaN && math.IsNaN(got) && math.IsNaN(want)
}

// requireDotRows fails unless dst[r] bit-equals Dot of row r of the block
// (see sameFloat for anyNaN).
func requireDotRows(t *testing.T, what string, dst, w []float64, cols, stride int, x []float64, anyNaN bool) {
	t.Helper()
	for r := range dst {
		want := Dot(w[r*stride:r*stride+cols], x)
		if !sameFloat(dst[r], want, anyNaN) {
			t.Fatalf("%s row %d: %v (%#x), Dot %v (%#x)",
				what, r, dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
		}
	}
}

func TestDotPanelMatchesDotBitForBit(t *testing.T) {
	kernelBodies(t, func(t *testing.T, body string) {
		g := rand.New(rand.NewSource(7))
		var p Panel // reused across shapes, as the models reuse theirs
		for _, rows := range []int{0, 1, 3, 4, 10, 16, 17, 33} {
			for cols := 0; cols <= 70; cols++ {
				for _, gap := range []int{0, 1, 3} {
					stride := cols + gap
					w := make([]float64, rows*stride)
					x := make([]float64, cols)
					for i := range w {
						w[i] = dotOperand(g)
					}
					for i := range x {
						x[i] = dotOperand(g)
					}
					p.Pack(w, rows, cols, stride, packMinExamples)
					dst := make([]float64, rows)
					p.MulVec(dst, x)
					requireDotRows(t, fmt.Sprintf("%s: rows %d cols %d stride %d", body, rows, cols, stride), dst, w, cols, stride, x, !nanPayloadsPinned)
				}
			}
		}
	})
}

// TestMulVecsMatchesDotBitForBit pins the block product, whose vector body
// takes two examples per pass, to a per-row Dot for every example of
// blocks of 0–5 examples, with guard lanes around the results.
func TestMulVecsMatchesDotBitForBit(t *testing.T) {
	kernelBodies(t, func(t *testing.T, body string) {
		g := rand.New(rand.NewSource(10))
		var p Panel
		for _, rows := range []int{0, 1, 10, 16, 17, 33} {
			for _, cols := range []int{0, 1, 5, 16, 20, 64} {
				stride := cols + 1
				w := make([]float64, rows*stride)
				for i := range w {
					w[i] = dotOperand(g)
				}
				for n := 0; n <= 5; n++ {
					xs := make([][]float64, n)
					for i := range xs {
						xs[i] = make([]float64, cols)
						for j := range xs[i] {
							xs[i][j] = dotOperand(g)
						}
					}
					p.Pack(w, rows, cols, stride, packMinExamples)
					const guard = 2
					buf := make([]float64, n*rows+2*guard)
					for i := range buf {
						buf[i] = -7
					}
					p.MulVecs(buf[guard:guard+n*rows], xs, nil)
					what := fmt.Sprintf("%s: %d examples, rows %d cols %d", body, n, rows, cols)
					for i, x := range xs {
						requireDotRows(t, fmt.Sprintf("%s, example %d", what, i), buf[guard+i*rows:][:rows], w, cols, stride, x, !nanPayloadsPinned)
					}
					for _, v := range append(buf[:guard:guard], buf[guard+n*rows:]...) {
						if v != -7 {
							t.Fatalf("%s: a guard lane became %v", what, v)
						}
					}
				}
			}
		}
	})
}

// TestElementwiseKernelsMatchLoopsBitForBit pins Axpy and AddVec (and so
// MeanVecs) on the vector body to the portable loops, special operands
// and every tail length included.
func TestElementwiseKernelsMatchLoopsBitForBit(t *testing.T) {
	if !haveSIMD {
		t.Skip("no vector kernel bodies on this host")
	}
	defer SetSIMD(SetSIMD(true))
	g := rand.New(rand.NewSource(8))
	// Half the operands are special, so NaNs of both payloads meet in
	// every position, the scalar tail's included.
	operand := func() float64 {
		if g.Intn(2) == 0 {
			return specialDotValues[g.Intn(len(specialDotValues))]
		}
		return dotOperand(g)
	}
	for n := 0; n <= 70; n++ {
		for _, a := range slices.Concat(specialDotValues, []float64{0.5, -3, dotOperand(g)}) {
			for trial := 0; trial < 4; trial++ {
				x, y := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], y[i] = operand(), operand()
				}
				checkElementwise(t, fmt.Sprintf("n %d a %v", n, a), a, x, y, !nanPayloadsPinned)
			}
		}
	}
}

// checkElementwise runs Axpy(a, x, y) and AddVec(y, x) on both bodies from
// the same inputs and requires the same bits (see sameFloat for anyNaN).
func checkElementwise(t *testing.T, what string, a float64, x, y []float64, anyNaN bool) {
	t.Helper()
	run := func(simd bool) (axpy, add []float64) {
		defer SetSIMD(SetSIMD(simd))
		axpy, add = CopyVec(y), CopyVec(y)
		Axpy(a, x, axpy)
		AddVec(add, x)
		return axpy, add
	}
	goAxpy, goAdd := run(false)
	simdAxpy, simdAdd := run(true)
	for i := range y {
		if !sameFloat(simdAxpy[i], goAxpy[i], anyNaN) || !sameFloat(simdAdd[i], goAdd[i], anyNaN) {
			t.Fatalf("%s [%d]: Axpy %#x, loop %#x; AddVec %#x, loop %#x", what, i,
				math.Float64bits(simdAxpy[i]), math.Float64bits(goAxpy[i]), math.Float64bits(simdAdd[i]), math.Float64bits(goAdd[i]))
		}
	}
}

func TestMulVecsPanicsOnMismatch(t *testing.T) {
	w := make([]float64, 4*6) // four rows of 5 weights plus a bias each
	for _, tc := range []struct {
		name string
		xs   []int
		dst  int
	}{
		{"long second example of a pair", []int{5, 6}, 8},
		{"short first example of a pair", []int{4, 5}, 8},
		{"long example in the tail", []int{5, 5, 6}, 12},
		{"too few results", []int{5, 5}, 7},
		{"too many results", []int{5}, 5},
	} {
		kernelBodies(t, func(t *testing.T, body string) {
			t.Run(body+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				xs := make([][]float64, len(tc.xs))
				for i, n := range tc.xs {
					xs[i] = make([]float64, n)
				}
				var p Panel
				p.Pack(w, 4, 5, 6, packMinExamples)
				p.MulVecs(make([]float64, tc.dst), xs, nil)
			})
		})
	}
}

func TestDotPanelPanicsOnMismatch(t *testing.T) {
	w := make([]float64, 4*6) // four rows of 5 weights plus a bias each
	for _, tc := range []struct {
		name               string
		rows, cols, stride int
		x                  int
	}{
		{"long example reads the bias", 4, 5, 6, 6},
		{"short example", 4, 5, 6, 4},
		{"short example in the tail", 1, 5, 6, 4},
		{"stride below row length", 4, 5, 4, 5},
		{"block too short", 5, 5, 6, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			var p Panel
			p.Pack(w, tc.rows, tc.cols, tc.stride, 1)
			p.MulVec(make([]float64, tc.rows), make([]float64, tc.x))
		})
	}
}

// FuzzDotPanel decodes a row count (0–39), a row length (0–39), a stride
// gap (0–3) and the operands, as raw float64 bits, from arbitrary bytes.
// Both kernel bodies must give per-row Dot's bits, for one example and for
// a pair of them through the block product, and the element-wise
// kernels must give the portable loops' bits on the same operands. The
// seed corpus is in testdata/fuzz/FuzzDotPanel.
// Any NaN matches any NaN here (see nanPayloadsPinned): the coverage
// instrumentation of a -fuzz build changes the portable loops' operand
// order. TestDotPanelMatchesDotBitForBit and
// TestElementwiseKernelsMatchLoopsBitForBit pin the payloads.
func FuzzDotPanel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols, gap := int(data[0]%40), int(data[1]%40), int(data[2]%4)
		stride := cols + gap
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
		w := make([]float64, rows*stride)
		x := make([]float64, cols)
		for i := range w {
			w[i] = operand()
		}
		for i := range x {
			x[i] = operand()
		}
		x1 := make([]float64, cols)
		for i := range x1 {
			x1[i] = operand()
		}
		kernelBodies(t, func(t *testing.T, body string) {
			var p Panel
			p.Pack(w, rows, cols, stride, packMinExamples)
			dst := make([]float64, rows)
			p.MulVec(dst, x)
			requireDotRows(t, body, dst, w, cols, stride, x, true)
			pair := make([]float64, 2*rows)
			p.MulVecs(pair, [][]float64{x1, x}, nil)
			requireDotRows(t, body+": first of a pair", pair[:rows], w, cols, stride, x1, true)
			requireDotRows(t, body+": second of a pair", pair[rows:], w, cols, stride, x, true)
		})
		if haveSIMD {
			y := w[:min(len(w), cols)]
			checkElementwise(t, "fuzz", operand(), x[:len(y)], y, true)
		}
	})
}

// BenchmarkDotPanel measures one pack and a 100-example forward pass of the
// perfbench layer shapes through each kernel body: the cold_mlp MLP's
// 64→16 and 16→10 layers and the durable_http logistic regression's
// 20-feature, 10-class logits.
func BenchmarkDotPanel(b *testing.B) {
	for _, sh := range []struct{ cols, rows int }{{64, 16}, {16, 10}, {20, 10}} {
		g := rand.New(rand.NewSource(9))
		w := make([]float64, sh.rows*sh.cols)
		for i := range w {
			w[i] = g.NormFloat64()
		}
		xs := make([][]float64, 100)
		for i := range xs {
			xs[i] = make([]float64, sh.cols)
			for j := range xs[i] {
				xs[i][j] = g.NormFloat64()
			}
		}
		dst := make([]float64, sh.rows)
		for _, body := range []string{"go", "simd"} {
			b.Run(fmt.Sprintf("%dx%d/%s", sh.cols, sh.rows, body), func(b *testing.B) {
				if body == "simd" && !haveSIMD {
					b.Skip("no vector kernel bodies on this host")
				}
				defer SetSIMD(SetSIMD(body == "simd"))
				var p Panel
				b.ReportAllocs()
				for b.Loop() {
					p.Pack(w, sh.rows, sh.cols, sh.cols, len(xs))
					for _, x := range xs {
						p.MulVec(dst, x)
					}
				}
			})
		}
	}
}
