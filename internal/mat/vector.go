package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy adds a*x to y in place. On a host with AVX2 it runs the vector
// body, which gives this loop's bits.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: axpy length mismatch")
	}
	if useSIMD {
		axpySIMD(a, x, y)
		return
	}
	for i := range y {
		y[i] += a * x[i]
	}
}

// AddVec adds b to a in place. On a host with AVX2 it runs the vector
// body, which gives this loop's bits.
func AddVec(a, b []float64) {
	if len(a) != len(b) {
		panic("mat: add length mismatch")
	}
	if useSIMD {
		addSIMD(a, b)
		return
	}
	for i := range a {
		a[i] += b[i]
	}
}

// CopyVec returns a copy of v.
func CopyVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// MeanVecs returns the element-wise mean of the given vectors.
// It panics if vecs is empty or ragged.
func MeanVecs(vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		panic("mat: mean of no vectors")
	}
	n := len(vecs[0])
	out := make([]float64, n)
	for _, v := range vecs {
		if len(v) != n {
			panic("mat: ragged vectors in mean")
		}
		AddVec(out, v)
	}
	inv := 1 / float64(len(vecs))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// MeanVecsInto computes the element-wise mean of the given vectors into a
// caller-owned buffer, growing it only when its capacity is insufficient,
// and returns the (possibly re-sliced) buffer. The accumulation order —
// sum the vectors in input order, then scale by 1/len — is exactly
// MeanVecs's, so the result is bit-identical to MeanVecs(vecs); callers
// that reuse the buffer pay zero allocations on the memoized-utility hot
// path. It panics if vecs is empty or ragged.
func MeanVecsInto(dst []float64, vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		panic("mat: mean of no vectors")
	}
	n := len(vecs[0])
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vecs {
		if len(v) != n {
			panic("mat: ragged vectors in mean")
		}
		AddVec(dst, v)
	}
	inv := 1 / float64(len(vecs))
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// ArgMax returns the index of the maximum element of v (first one on ties);
// it returns -1 for an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Softmax writes the softmax of logits into dst (which may alias logits).
// It uses the max-subtraction trick for numerical stability. On a host
// where math.Exp takes its FMA path it computes the exponentials with the
// vector exp kernel, which gives math.Exp's bits; the sum stays one serial
// chain in index order.
func Softmax(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic("mat: softmax length mismatch")
	}
	mx := logits[0]
	for _, x := range logits[1:] {
		if x > mx {
			mx = x
		}
	}
	expSub(dst, logits, mx)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// LabelLogProbs stores into dst[i] the log of the softmax probability that
// row i of logits gives its label, labels[i], floored at 1e-15:
// math.Log(math.Max(p, 1e-15)), the cross-entropy of a test example with
// its sign flipped. logits holds len(labels) rows of classes entries one
// after another; it is overwritten. Each probability keeps Softmax's bits:
// the row's max by the same scan, the exponentials of the differences, the
// serial sum in index order and the label's exponential times the sum's
// reciprocal (the other classes' products are never formed). The block's
// exponentials go through one call of the exp kernel and its logs through
// one call of the log kernel, so those get len(logits) and len(labels)
// lanes instead of one row's. On a host with AVX2 the scan and the sums
// run four rows at a time, one row per lane, and a last one to three rows
// run the portable loops. It panics when the lengths disagree or a label
// is not a class.
func LabelLogProbs(dst, logits []float64, classes int, labels []int) {
	if len(dst) != len(labels) || len(logits) != len(labels)*classes {
		panic(fmt.Sprintf("mat: %d logits are not %d rows of %d classes into %d results", len(logits), len(labels), classes, len(dst)))
	}
	for _, y := range labels {
		if uint(y) >= uint(classes) {
			panic(fmt.Sprintf("mat: label %d of %d classes", y, classes))
		}
	}
	wide := 0 // rows the vector bodies take
	if useSIMD {
		wide = len(labels) &^ 3
	}
	if wide > 0 {
		rowMaxShiftSIMD(logits[:wide*classes], classes)
	}
	for i := wide; i < len(labels); i++ {
		row := logits[i*classes:][:classes]
		mx := row[0]
		for _, x := range row[1:] {
			if x > mx {
				mx = x
			}
		}
		for j, x := range row {
			row[j] = x - mx
		}
	}
	expSub(logits, logits, 0)
	if wide > 0 {
		labelProbsSIMD(dst[:wide], logits[:wide*classes], classes, labels[:wide])
	}
	for i := wide; i < len(labels); i++ {
		row := logits[i*classes:][:classes]
		var sum float64
		for _, e := range row {
			sum += e
		}
		dst[i] = math.Max(row[labels[i]]*(1/sum), 1e-15)
	}
	logInto(dst, dst)
}
