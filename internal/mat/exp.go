package mat

import (
	"fmt"
	"math"
	"math/bits"
)

// The exp and tanh kernels run math.Exp's amd64 algorithm (archExp in
// $GOROOT/src/math/exp_amd64.s, after Shibata, "Efficient evaluation
// methods of elementary functions suitable for SIMD computation", ISC 2010)
// on four lanes per YMM register. The algorithm is one branch-free chain of
// operations from the argument to the result, so a lane that runs the same
// operations in the same order, fused where math's FMA path fuses, gives
// math.Exp's bits. The branches archExp does take (non-finite input,
// overflow, a denormal or zero result) lie outside |x| ≤ expRange, and a
// lane there is left to package math. math.tanh is Go code that the amd64
// compiler never fuses, so the tanh kernel evaluates each of its branches
// with the same operations in every lane and keeps the one tanh takes.
//
// The log kernel runs math.Log's amd64 algorithm (archLog in
// $GOROOT/src/math/log_amd64.s), another straight-line chain, but one of
// separate SSE2 multiplies and adds that every amd64 host runs, so unlike
// exp it needs only AVX2 and no probe. archLog branches on ±0, negative
// inputs, +Inf and NaN, and a lane there is left to package math. It
// takes a subnormal input's exponent and fraction straight from its bits,
// without normalizing them, and the kernel does the same: on amd64,
// math.Log(5e-324) is −709.0895657128241, not −744.44.

// expLanes is the most lanes one call of a vector body covers: one bit each
// in the mask of lanes it leaves to package math.
const expLanes = 64

// expRange bounds the arguments a vector lane evaluates: for |x| ≤ 708,
// archExp's exponent k = round(x·log₂e) lies in [−1021, 1021] and it takes
// none of its branches.
const expRange = 708

// expSub stores math.Exp(x[i] - sub) into dst[i] for every i; dst may be x
// itself. A lane the vector body leaves keeps its x[i], which is where
// package math reads it from.
func expSub(dst, x []float64, sub float64) {
	if !(useSIMD && haveExpSIMD) {
		for i, v := range x {
			dst[i] = math.Exp(v - sub)
		}
		return
	}
	for len(x) > 0 {
		n := min(len(x), expLanes)
		for left := expSubSIMD(dst[:n], x[:n], sub); left != 0; left &= left - 1 {
			i := bits.TrailingZeros64(left)
			dst[i] = math.Exp(x[i] - sub)
		}
		dst, x = dst[n:], x[n:]
	}
}

// logInto stores math.Log(x[i]) into dst[i] for every i; dst may be x
// itself. A lane the vector body leaves keeps its x[i], which is where
// package math reads it from.
func logInto(dst, x []float64) {
	if !useSIMD {
		for i, v := range x {
			dst[i] = math.Log(v)
		}
		return
	}
	for len(x) > 0 {
		n := min(len(x), expLanes)
		for left := logSIMD(dst[:n], x[:n]); left != 0; left &= left - 1 {
			i := bits.TrailingZeros64(left)
			dst[i] = math.Log(x[i])
		}
		dst, x = dst[n:], x[n:]
	}
}

// TanhBias sets h[i] = math.Tanh(h[i] + b[i]) for every i: a hidden
// layer's bias add and activation. On a host where math.Exp takes its FMA
// path (amd64 with AVX2 and FMA) it runs the vector body, which gives the
// same bits; a lane whose sum is NaN is left to package math. It panics
// when the lengths differ.
func TanhBias(h, b []float64) {
	if len(h) != len(b) {
		panic(fmt.Sprintf("mat: tanh of %d sums with %d biases", len(h), len(b)))
	}
	if !(useSIMD && haveExpSIMD) {
		for i := range h {
			h[i] = math.Tanh(h[i] + b[i])
		}
		return
	}
	for len(h) > 0 {
		n := min(len(h), expLanes)
		for left := tanhBiasSIMD(h[:n], b[:n]); left != 0; left &= left - 1 {
			i := bits.TrailingZeros64(left)
			h[i] = math.Tanh(h[i] + b[i])
		}
		h, b = h[n:], b[n:]
	}
}
