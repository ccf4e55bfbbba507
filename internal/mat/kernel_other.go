//go:build !amd64

package mat

// haveSIMD is false: only amd64 has vector kernel bodies, so every other
// architecture runs the portable ones.
const haveSIMD = false

// haveExpSIMD is false: the exp and tanh kernels follow amd64's math.Exp,
// which other architectures compute with other algorithms (arm64's
// exp_arm64.s, elsewhere package math's Go code), so they keep package
// math's calls.
const haveExpSIMD = false

func dotPanelSIMD(out *[panelLanes]float64, blk, x []float64) { panic("mat: no vector kernels") }
func axpySIMD(a float64, x, y []float64)                      { panic("mat: no vector kernels") }
func addSIMD(a, b []float64)                                  { panic("mat: no vector kernels") }
func dotPanel2SIMD(out0, out1 *[panelLanes]float64, blk, x0, x1 []float64) {
	panic("mat: no vector kernels")
}
func gramSIMD(g, b []float64, features [][]float64, targets []float64, r int) {
	panic("mat: no vector kernels")
}
func solveWideSIMD(x, targets []float64, features [][]float64, l, dst []float64, rows []int, r int) {
	panic("mat: no vector kernels")
}
func solveUniqueSIMD(dst, w []float64, rows []int, r int) (bad uint64) {
	panic("mat: no vector kernels")
}
func residualsWideSIMD(dst, targets, x []float64, features [][]float64, r, m int) {
	panic("mat: no vector kernels")
}
func expSubSIMD(dst, x []float64, sub float64) (left uint64)     { panic("mat: no vector kernels") }
func tanhBiasSIMD(h, b []float64) (left uint64)                  { panic("mat: no vector kernels") }
func logSIMD(dst, x []float64) (left uint64)                     { panic("mat: no vector kernels") }
func rowMaxShiftSIMD(z []float64, classes int)                   { panic("mat: no vector kernels") }
func labelProbsSIMD(dst, e []float64, classes int, labels []int) { panic("mat: no vector kernels") }
