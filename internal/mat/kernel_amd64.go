package mat

import "math"

// haveSIMD reports whether the CPU runs AVX2 and the operating system saves
// the YMM registers across context switches.
var haveSIMD = detectAVX2()

// haveFMA reports whether the CPU runs the FMA3 instructions (CPUID.1:ECX
// bit 12), which the exp and tanh kernels use.
var haveFMA = detectFMA()

// haveExpSIMD reports whether the exp and tanh kernels give package math's
// bits on this host. math.Exp takes a path with fused multiply-adds only
// where the runtime reports AVX and FMA, which GODEBUG=cpu.fma=off (or
// cpu.avx=off) turns off; the kernels follow that path, so they run only
// when math.Exp gives its bits on probe inputs where the two paths differ.
var haveExpSIMD = haveSIMD && haveFMA && mathExpFused()

// expProbes are inputs on which math.Exp's fused and unfused paths differ,
// each with the fused path's bits. TestExpProbesSeparatePaths finds them.
var expProbes = [...]struct {
	x     float64
	fused uint64
}{
	{0.375, 0x3ff747a513dbef6b},
	{2.375, 0x40258084cce2201b},
	{3.625, 0x4042c32a20e4f855},
	{6.125, 0x407c9250bedc542d},
}

// mathExpFused reports whether math.Exp gives the fused path's bits on
// every probe.
func mathExpFused() bool {
	for _, p := range expProbes {
		if math.Float64bits(math.Exp(p.x)) != p.fused {
			return false
		}
	}
	return true
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMMState = 1<<1 | 1<<2 // XCR0: SSE and AVX register state
	if xgetbv()&xmmYMMState != xmmYMMState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func detectFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register XCR0.
func xgetbv() (eax uint32)

// dotPanelSIMD stores all 16 lanes of one packed group dotted with x into
// out. len(blk) must be 16*len(x).
//
//go:noescape
func dotPanelSIMD(out *[panelLanes]float64, blk, x []float64)

// dotPanel2SIMD is dotPanelSIMD for two examples of the same length: it
// stores the group dotted with x0 into out0 and with x1 into out1.
//
//go:noescape
func dotPanel2SIMD(out0, out1 *[panelLanes]float64, blk, x0, x1 []float64)

// axpySIMD adds a*x to y in place; len(x) must equal len(y).
//
//go:noescape
func axpySIMD(a float64, x, y []float64)

// addSIMD adds b to a in place; len(b) must equal len(a).
//
//go:noescape
func addSIMD(a, b []float64)

// gramSIMD is the vector body of ridgeGram for 1 ≤ r ≤ gramSIMDMaxRank,
// before λ: it writes the lower triangle of AᵀA into g and, when targets is
// non-empty, Aᵀ targets into b. Every feature row must have length r.
//
//go:noescape
func gramSIMD(g, b []float64, features [][]float64, targets []float64, r int)

// solveWideSIMD is the vector body of RidgeSolveWideInto for m = len(rows)
// ≥ 1 systems; l is the r×r factor's row-major data and dst the rows'
// matrix, r columns wide.
//
//go:noescape
func solveWideSIMD(x, targets []float64, features [][]float64, l, dst []float64, rows []int, r int)

// solveUniqueSIMD is the vector body of RidgeSolveUniqueInto for
// 1 ≤ len(rows) ≤ 4 systems of rank r ≥ 1: w holds their Gram matrices,
// system c's at w[c*r*r:], then their right-hand sides, system c's at
// w[4*r*r+c*r:], then the kernel's working storage, 4·r·r floats for the
// factors and 4·⌈r/4⌉·4 for the solutions. It returns a bit mask of the
// systems whose Gram matrix is not positive definite, and stores system
// c's solution at dst[rows[c]*r:] only when that mask is zero.
//
//go:noescape
func solveUniqueSIMD(dst, w []float64, rows []int, r int) (bad uint64)

// residualsWideSIMD is the vector body of RidgeResidualsWideInto for m ≥ 1
// systems over at least one feature row of rank r ≥ 1.
//
//go:noescape
func residualsWideSIMD(dst, targets, x []float64, features [][]float64, r, m int)

// expSubSIMD is the vector body of expSub for 0 ≤ len(x) ≤ expLanes: it
// stores math.Exp(x[i] - sub) into dst[i] for every lane with
// |x[i] - sub| ≤ expRange and leaves the other lanes alone, setting bit i
// of left for each.
//
//go:noescape
func expSubSIMD(dst, x []float64, sub float64) (left uint64)

// tanhBiasSIMD is the vector body of TanhBias for 0 ≤ len(h) ≤ expLanes: it
// stores math.Tanh(h[i] + b[i]) into h[i] for every lane whose sum is not
// NaN and leaves the NaN lanes alone, setting bit i of left for each.
//
//go:noescape
func tanhBiasSIMD(h, b []float64) (left uint64)

// rowMaxShiftSIMD is the vector body of LabelLogProbs's first step for
// len(z)/classes rows, a multiple of four, of classes ≥ 1 entries: it
// subtracts each row's max, found by LabelLogProbs's scan, from the row's
// entries.
//
//go:noescape
func rowMaxShiftSIMD(z []float64, classes int)

// labelProbsSIMD is the vector body of LabelLogProbs's third step for
// len(dst) rows, a multiple of four, of classes ≥ 1 exponentials in e: it
// stores math.Max(e_y·(1/sum), 1e-15) into dst[i], with sum the row's
// serial sum and y = labels[i], which must lie in [0, classes).
//
//go:noescape
func labelProbsSIMD(dst, e []float64, classes int, labels []int)

// logSIMD is the vector body of logInto for 0 ≤ len(x) ≤ expLanes: it
// stores math.Log(x[i]) into dst[i] for every lane whose bits, as a signed
// integer, lie in (0, +Inf), the positive finite floats subnormals
// included, and leaves the other lanes alone, setting bit i of left for
// each.
//
//go:noescape
func logSIMD(dst, x []float64) (left uint64)
