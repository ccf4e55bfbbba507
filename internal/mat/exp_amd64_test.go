package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// archExpGo renders math.Exp's amd64 assembly (archExp in
// $GOROOT/src/math/exp_amd64.s) in scalar Go, step for step, as the
// documented oracle of what every lane of the exp kernels computes. With
// fused set it follows the path math takes on a CPU with AVX and FMA, each
// fused multiply-add written as math.FMA; otherwise the separate multiply
// and add of the other path, each product rounded on its own. The kernels
// run the fused path for |x| ≤ expRange, where it takes none of its
// branches.
func archExpGo(x float64, fused bool) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even, the integer indefinite when out of
	// range.
	k := int32(math.MinInt32)
	if kr := math.RoundToEven(log2e * x); kr >= math.MinInt32 && kr <= math.MaxInt32 {
		k = int32(kr)
	}
	kf := float64(k)
	var r float64
	if fused {
		r = math.FMA(-kf, ln2U, x)
		r = math.FMA(-kf, ln2L, r)
	} else {
		r = x - float64(kf*ln2U)
		r = r - float64(kf*ln2L)
	}
	r *= 0.0625
	p := 2.4801587301587301587e-5 // Horner from 1/8! down to 1/1!
	for _, c := range []float64{
		1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	} {
		if fused {
			p = math.FMA(r, p, c)
		} else {
			p = float64(p*r) + c
		}
	}
	r *= p
	for i := 0; i < 4; i++ { // four squarings (r+2)·r; the fused path adds 1 in the last
		t := r + 2
		if i == 3 && fused {
			r = math.FMA(t, r, 1)
		} else {
			r *= t
		}
	}
	if !fused {
		r += 1
	}
	e := k + 0x3ff // biased exponent
	switch {
	case e <= 0: // a denormal result, or 0
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+0x3fe) << 52)
		return r * math.Float64frombits(1<<52)
	case e >= 0x7ff:
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// TestExpProbesSeparatePaths finds the probes the kernels' start-up check
// uses: the first inputs x = i/8 on which archExp's fused and unfused paths
// give different bits, with the fused bits.
func TestExpProbesSeparatePaths(t *testing.T) {
	var found []string
	for i := 1; len(found) < len(expProbes); i++ {
		x := float64(i) / 8
		if f := archExpGo(x, true); f != archExpGo(x, false) {
			found = append(found, fmt.Sprintf("{%v, %#x}", x, math.Float64bits(f)))
		}
	}
	for i, p := range expProbes {
		if got := fmt.Sprintf("{%v, %#x}", p.x, p.fused); got != found[i] {
			t.Fatalf("probe %d is %s, the search finds %s", i, got, found[i])
		}
	}
	t.Logf("math.Exp takes the fused path: %v; exp kernels on: %v", mathExpFused(), haveExpSIMD)
}

// TestArchExpGoMatchesMathExp checks the oracle against math.Exp, on the
// path math takes on this host, over the inputs of the exp kernel test.
func TestArchExpGoMatchesMathExp(t *testing.T) {
	fused := mathExpFused()
	for i, x := range expInputs(rand.New(rand.NewSource(21)), 1_000_000) {
		if got, want := archExpGo(x, fused), math.Exp(x); !sameFloat(got, want, false) {
			t.Fatalf("input %d: archExpGo(%v, %v) %#x, math.Exp %#x", i, x, fused, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
