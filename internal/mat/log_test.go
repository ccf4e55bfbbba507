package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// hSqrt2 is archLog's √2/2: a fraction f1 at or below it takes the branch
// that halves the exponent's weight, k −= 1 and f1 *= 2.
const hSqrt2 = 7.07106781186547524401e-01

// logSpecials are the log arguments where a branch, the bit extraction or
// the √2/2 comparison would show first, each with its neighbours.
func logSpecials() []float64 {
	base := []float64{
		0, math.SmallestNonzeroFloat64, 1e-310, math.Float64frombits(0x0008_0000_0000_0000),
		math.Float64frombits(0x000f_ffff_ffff_ffff), 0x1p-1022, // subnormals and the smallest normal
		1, 2, 0.5, 1e-15, 1e-300, 3, 10, 1e10, 1e300, math.MaxFloat64, math.Inf(1),
		hSqrt2, 2 * hSqrt2, 0.5 * hSqrt2, 0x1p-1000 * hSqrt2, 0x1p1000 * hSqrt2, 0x1p-1030 * hSqrt2,
	}
	var out []float64
	for _, v := range base {
		for _, s := range []float64{v, -v} {
			out = append(out, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
		}
	}
	return append(out, math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff4_0000_dead_beef),
		math.Float64frombits(0x7fff_ffff_ffff_ffff))
}

// logInputs returns the specials, n random bit patterns and n values
// uniform on [1e-15, 1], the range of a floored label probability.
func logInputs(g *rand.Rand, n int) []float64 {
	in := logSpecials()
	for i := 0; i < n; i++ {
		in = append(in, math.Float64frombits(g.Uint64()), 1e-15+(1-1e-15)*g.Float64())
	}
	return in
}

// checkLog runs logInto on x, into a fresh dst and in place, with guard
// lanes on both sides, and requires math.Log(x[i])'s bits.
func checkLog(t *testing.T, what string, x []float64, anyNaN bool) {
	t.Helper()
	want := func(i int) float64 { return math.Log(x[i]) }
	const guard = 3
	buf := make([]float64, len(x)+2*guard)
	for i := range buf {
		buf[i] = -7
	}
	dst := buf[guard : guard+len(x)]
	logInto(dst, x)
	requireLanes(t, what, dst, want, anyNaN)
	copy(dst, x)
	logInto(dst, dst)
	requireLanes(t, what+" in place", dst, want, anyNaN)
	for _, v := range append(buf[:guard:guard], buf[guard+len(x):]...) {
		if v != -7 {
			t.Fatalf("%s: a guard lane became %v", what, v)
		}
	}
}

// TestLogMatchesMathBitForBit pins every lane of the log kernel, on both
// bodies, to math.Log over specials, a million random bit patterns and a
// million values on [1e-15, 1], taken in slices of every length from 0 to
// 70 and then of 1,000 (several calls of the vector body). math.Log
// returns its NaN argument itself and a fixed NaN for a negative one, and
// the kernel leaves those lanes to it, so every payload is pinned.
func TestLogMatchesMathBitForBit(t *testing.T) {
	in := logInputs(rand.New(rand.NewSource(31)), 1_000_000)
	kernelBodies(t, func(t *testing.T, body string) {
		rest, n := in, 0
		for len(rest) > 0 {
			k := min(len(rest), n%71)
			if n > 71*4 {
				k = min(len(rest), 1000)
			}
			checkLog(t, fmt.Sprintf("%s: length %d", body, k), rest[:k], false)
			rest, n = rest[k:], n+1
		}
	})
}

// TestLogSqrt2Boundary sweeps fractions on both sides of archLog's √2/2
// comparison, exactly at it included, at every exponent from the
// subnormal range to the largest, in every lane position. archLog adjusts
// where f1 ≤ √2/2; at f1 = √2/2 the other reduction gives the same bits
// except at √2/2·2^32, so only a sweep of every exponent pins the
// comparison.
func TestLogSqrt2Boundary(t *testing.T) {
	var in []float64
	for e := -1074; e <= 1023; e++ {
		v := math.Ldexp(hSqrt2, e)
		for i := 0; i < 8; i++ {
			in = append(in, v)
			v = math.Nextafter(v, 0)
		}
		v = math.Ldexp(hSqrt2, e)
		for i := 0; i < 8; i++ {
			v = math.Nextafter(v, math.Inf(1))
			in = append(in, v)
		}
	}
	kernelBodies(t, func(t *testing.T, body string) {
		for off := 0; off < 4; off++ {
			checkLog(t, fmt.Sprintf("%s: offset %d", body, off), in[off:], false)
		}
	})
}

// TestLogSubnormalsAsAmd64 pins the amd64 behaviour the kernel
// reproduces: archLog reads a subnormal's exponent field as 0 and its
// fraction with the exponent of 0.5, without normalizing it, so
// math.Log(5e-324) is −709.0895657128241 there, where the exact value is
// −744.44.
func TestLogSubnormalsAsAmd64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Log normalizes subnormals off amd64")
	}
	x := []float64{5e-324, 1e-310}
	want := []float64{-709.0895657128241, math.Log(1e-310)}
	kernelBodies(t, func(t *testing.T, body string) {
		got := make([]float64, len(x))
		logInto(got, x)
		requireLanes(t, body, got, func(i int) float64 { return want[i] }, false)
	})
}

// TestLabelLogProbsMatchesSoftmax pins LabelLogProbs, on both bodies, to
// a per-row Softmax followed by math.Log(math.Max(p, 1e-15)), for blocks
// of 0–35 rows of 1–17 classes of ordinary, widely spread (gaps beyond
// expRange, so probabilities under the floor) and special logits.
func TestLabelLogProbsMatchesSoftmax(t *testing.T) {
	specials := expSpecials()
	g := rand.New(rand.NewSource(32))
	for classes := 1; classes <= 17; classes++ {
		for rows := 0; rows <= 35; rows++ {
			for trial := 0; trial < 3; trial++ {
				logits := make([]float64, rows*classes)
				for i := range logits {
					switch trial {
					case 0:
						logits[i] = 4 * g.NormFloat64()
					case 1:
						logits[i] = 600 * g.NormFloat64()
					default:
						logits[i] = specials[g.Intn(len(specials))]
					}
				}
				labels := make([]int, rows)
				for i := range labels {
					labels[i] = g.Intn(classes)
				}
				kernelBodies(t, func(t *testing.T, body string) {
					want := make([]float64, rows)
					probs := make([]float64, classes)
					for i, y := range labels {
						Softmax(probs, logits[i*classes:][:classes])
						want[i] = math.Log(math.Max(probs[y], 1e-15))
					}
					got := make([]float64, rows)
					LabelLogProbs(got, CopyVec(logits), classes, labels)
					requireLanes(t, fmt.Sprintf("%s: %d rows of %d classes", body, rows, classes), got,
						func(i int) float64 { return want[i] }, !nanPayloadsPinned)
				})
			}
		}
	}
}

func TestLabelLogProbsPanicsOnMismatch(t *testing.T) {
	for _, tc := range []struct {
		name            string
		dst, logits, cl int
		labels          []int
	}{
		{"short logits", 2, 5, 3, []int{0, 1}},
		{"short dst", 1, 6, 3, []int{0, 1}},
		{"label past the classes", 2, 6, 3, []int{0, 3}},
		{"negative label", 1, 3, 3, []int{-1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			LabelLogProbs(make([]float64, tc.dst), make([]float64, tc.logits), tc.cl, tc.labels)
		})
	}
}

func TestLogKernelsZeroAlloc(t *testing.T) {
	x := []float64{0.1, 1e-15, 0.9, 0.5, 1, 0.25, 0.7, 0.3, 1e-300, 0.01, 0.99}
	dst := make([]float64, len(x))
	logits := make([]float64, 16*10)
	labels := make([]int, 16)
	logp := make([]float64, len(labels))
	kernelBodies(t, func(t *testing.T, body string) {
		allocs := testing.AllocsPerRun(50, func() {
			logInto(dst, x)
			LabelLogProbs(logp, logits, 10, labels)
		})
		if allocs != 0 {
			t.Fatalf("%s: logInto and LabelLogProbs allocated %v times per run, want 0", body, allocs)
		}
	})
}

// FuzzLogWide decodes a length (0–70), a class count (1–17) and the
// lanes, as raw float64 bits, from arbitrary bytes. On both bodies, every
// lane of the log kernel must give math.Log's bits, and LabelLogProbs over
// the lanes as rows of that many classes (each label read from its row's
// first lane) must give a per-row Softmax and math.Log. The seed corpus is
// in testdata/fuzz/FuzzLogWide. Any NaN matches any NaN in the softmax
// check (see nanPayloadsPinned); the log kernel's lanes pin every payload.
func FuzzLogWide(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, classes := int(data[0]%71), 1+int(data[1]%17)
		ops := data[2:]
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
		x := make([]float64, n)
		for i := range x {
			x[i] = operand()
		}
		rows := n / classes
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = int(math.Float64bits(x[i*classes]) % uint64(classes))
		}
		kernelBodies(t, func(t *testing.T, body string) {
			checkLog(t, body, x, false)
			want := make([]float64, rows)
			probs := make([]float64, classes)
			for i, y := range labels {
				Softmax(probs, x[i*classes:][:classes])
				want[i] = math.Log(math.Max(probs[y], 1e-15))
			}
			got := make([]float64, rows)
			LabelLogProbs(got, CopyVec(x[:rows*classes]), classes, labels)
			requireLanes(t, body+": label log-probabilities", got, func(i int) float64 { return want[i] }, true)
		})
	})
}
