package mat

import (
	"math"
	"math/rand"
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

func TestDotRowsMatchesDotBitForBit(t *testing.T) {
	g := rand.New(rand.NewSource(7))
	for _, rows := range []int{0, 1, 3, 4, 5, 7, 8, 16, 17} {
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
				dst := make([]float64, rows)
				DotRows(dst, w, cols, stride, x)
				for r := 0; r < rows; r++ {
					want := Dot(w[r*stride:r*stride+cols], x)
					if math.Float64bits(dst[r]) != math.Float64bits(want) {
						t.Fatalf("rows %d cols %d stride %d row %d: %v (%#x), Dot %v (%#x)",
							rows, cols, stride, r, dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestDotRowsPanicsOnMismatch(t *testing.T) {
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
			DotRows(make([]float64, tc.rows), w, tc.cols, tc.stride, make([]float64, tc.x))
		})
	}
}
