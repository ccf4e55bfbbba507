package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expSpecials are the exp and tanh arguments where a branch, a range
// check or a blend would show first, each with its neighbours.
func expSpecials() []float64 {
	base := []float64{
		0, 1, 0.5, math.SmallestNonzeroFloat64, 0x1p-1022, math.Float64frombits(0x000f_ffff_ffff_ffff),
		math.MaxFloat64, math.Inf(1),
		7.09782712893384e+02, 709, 709.4, 709.44, 709.5, 710, 745, // overflow, and k = 1024
		708, 708.3964185322641, 708.74, 745.1332191019411, 745.2, 746, // the minimum normal and subnormal results
		expRange, 0.625, 44.014845965556527147994, 88.02969193111305, // tanh's cut-offs and 2·44.01
		1e-8, 1e-300, 20, 36, 100, 1e10, 1e300,
	}
	var out []float64
	for _, v := range base {
		for _, s := range []float64{v, -v} {
			out = append(out, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
		}
	}
	return append(out, math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff4_0000_dead_beef))
}

// expInputs returns the specials, n random bit patterns, n values uniform
// on [−750, 750] and a dense sweep of [−50, 50] in steps of 1e-4.
func expInputs(g *rand.Rand, n int) []float64 {
	in := expSpecials()
	for i := 0; i < n; i++ {
		in = append(in, math.Float64frombits(g.Uint64()), 1500*g.Float64()-750)
	}
	for i := -500_000; i <= 500_000; i++ {
		in = append(in, float64(i)*1e-4)
	}
	return in
}

// requireLanes fails unless got[i] has want(i)'s bits for every i, any
// NaN matching any NaN where anyNaN is set.
func requireLanes(t *testing.T, what string, got []float64, want func(i int) float64, anyNaN bool) {
	t.Helper()
	for i, g := range got {
		if w := want(i); !sameFloat(g, w, anyNaN) {
			t.Fatalf("%s lane %d: %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkExpSub runs expSub on x with sub, into a fresh dst and in place,
// with guard lanes on both sides, and requires math.Exp(x[i] − sub)'s bits.
func checkExpSub(t *testing.T, what string, x []float64, sub float64, anyNaN bool) {
	t.Helper()
	want := func(i int) float64 { return math.Exp(x[i] - sub) }
	const guard = 3
	buf := make([]float64, len(x)+2*guard)
	for i := range buf {
		buf[i] = -7
	}
	dst := buf[guard : guard+len(x)]
	expSub(dst, x, sub)
	requireLanes(t, what, dst, want, anyNaN)
	copy(dst, x)
	expSub(dst, dst, sub)
	requireLanes(t, what+" in place", dst, want, anyNaN)
	for _, v := range append(buf[:guard:guard], buf[guard+len(x):]...) {
		if v != -7 {
			t.Fatalf("%s: a guard lane became %v", what, v)
		}
	}
}

// checkTanhBias runs TanhBias on h and b with guard lanes on both sides
// and requires math.Tanh(h[i] + b[i])'s bits.
func checkTanhBias(t *testing.T, what string, h, b []float64, anyNaN bool) {
	t.Helper()
	const guard = 3
	buf := make([]float64, len(h)+2*guard)
	for i := range buf {
		buf[i] = -7
	}
	got := buf[guard : guard+len(h)]
	copy(got, h)
	TanhBias(got, b)
	requireLanes(t, what, got, func(i int) float64 { return math.Tanh(h[i] + b[i]) }, anyNaN)
	for _, v := range append(buf[:guard:guard], buf[guard+len(h):]...) {
		if v != -7 {
			t.Fatalf("%s: a guard lane became %v", what, v)
		}
	}
}

// TestExpMatchesMathBitForBit pins every lane of the exp kernel, on both
// bodies, to math.Exp over specials, a million random bit patterns, a
// million values on [−750, 750] and a dense sweep of [−50, 50], taken in
// slices of every length from 0 to 70 and then of 1,000 (several calls of
// the vector body).
func TestExpMatchesMathBitForBit(t *testing.T) {
	in := expInputs(rand.New(rand.NewSource(21)), 1_000_000)
	kernelBodies(t, func(t *testing.T, body string) {
		rest, n := in, 0
		for len(rest) > 0 {
			k := min(len(rest), n%71)
			if n > 71*4 {
				k = min(len(rest), 1000)
			}
			checkExpSub(t, fmt.Sprintf("%s: length %d", body, k), rest[:k], 0, !nanPayloadsPinned)
			rest, n = rest[k:], n+1
		}
	})
}

// TestExpSubLanesAndTails fills slices of every length from 0 to 17 with
// specials and ordinary values and subtracts a shift, as Softmax does.
func TestExpSubLanesAndTails(t *testing.T) {
	specials := expSpecials()
	kernelBodies(t, func(t *testing.T, body string) {
		g := rand.New(rand.NewSource(22))
		for n := 0; n <= 17; n++ {
			for trial := 0; trial < 200; trial++ {
				x := make([]float64, n)
				for i := range x {
					if g.Intn(3) == 0 {
						x[i] = specials[g.Intn(len(specials))]
					} else {
						x[i] = g.NormFloat64() * math.Pow(2, float64(g.Intn(12)-2))
					}
				}
				sub := []float64{0, -0.0, 3.5, -700, math.Inf(1), math.NaN()}[trial%6]
				checkExpSub(t, fmt.Sprintf("%s: length %d sub %v", body, n, sub), x, sub, !nanPayloadsPinned)
			}
		}
	})
}

// TestTanhBiasMatchesMathBitForBit pins every lane of TanhBias, on both
// bodies, to math.Tanh of the sum: the inputs of the exp test as sums with
// a −0 bias (which leaves every sum its input, −0 included), and again
// with a random bias, in slices of every length from 0 to 70 and then of
// 1,000.
func TestTanhBiasMatchesMathBitForBit(t *testing.T) {
	g := rand.New(rand.NewSource(23))
	in := expInputs(g, 1_000_000)
	negZero, random := make([]float64, len(in)), make([]float64, len(in))
	for i := range in {
		negZero[i] = math.Copysign(0, -1)
		random[i] = g.NormFloat64()
	}
	kernelBodies(t, func(t *testing.T, body string) {
		for _, bias := range []struct {
			name string
			b    []float64
		}{{"−0 bias", negZero}, {"random bias", random}} {
			rest, b, n := in, bias.b, 0
			for len(rest) > 0 {
				k := min(len(rest), n%71)
				if n > 71*4 {
					k = min(len(rest), 1000)
				}
				checkTanhBias(t, fmt.Sprintf("%s, %s: length %d", body, bias.name, k), rest[:k], b[:k], !nanPayloadsPinned)
				rest, b, n = rest[k:], b[k:], n+1
			}
		}
	})
}

// TestTanhBiasLanesAndTails fills slices of every length from 0 to 17
// with specials and ordinary values, biases included.
func TestTanhBiasLanesAndTails(t *testing.T) {
	specials := expSpecials()
	kernelBodies(t, func(t *testing.T, body string) {
		g := rand.New(rand.NewSource(24))
		operand := func() float64 {
			if g.Intn(3) == 0 {
				return specials[g.Intn(len(specials))]
			}
			return g.NormFloat64() * math.Pow(2, float64(g.Intn(8)-3))
		}
		for n := 0; n <= 17; n++ {
			for trial := 0; trial < 200; trial++ {
				h, b := make([]float64, n), make([]float64, n)
				for i := range h {
					h[i], b[i] = operand(), operand()
				}
				checkTanhBias(t, fmt.Sprintf("%s: length %d", body, n), h, b, !nanPayloadsPinned)
			}
		}
	})
}

func TestTanhBiasPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TanhBias(make([]float64, 3), make([]float64, 4))
}

// softmaxGo is Softmax as one scalar loop over math.Exp, the form before
// the exp kernel.
func softmaxGo(dst, logits []float64) {
	mx := logits[0]
	for _, x := range logits[1:] {
		if x > mx {
			mx = x
		}
	}
	var sum float64
	for i, x := range logits {
		e := math.Exp(x - mx)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// TestSoftmaxMatchesScalarLoop pins Softmax on both bodies, into a fresh
// slice and in place, to the scalar loop, for 1–17 classes of ordinary,
// widely spread (gaps beyond expRange) and special logits. Where two
// exponentials are NaNs of different payloads, the sum's payload depends
// on which operand of the add the compiler makes the destination, which
// differs between the scalar loop and Softmax's separate sum loop; so
// against the scalar loop any NaN matches any NaN, and the two bodies must
// agree with each other on every bit.
func TestSoftmaxMatchesScalarLoop(t *testing.T) {
	specials := expSpecials()
	g := rand.New(rand.NewSource(25))
	for n := 1; n <= 17; n++ {
		for trial := 0; trial < 300; trial++ {
			logits := make([]float64, n)
			for i := range logits {
				switch trial % 3 {
				case 0:
					logits[i] = 4 * g.NormFloat64()
				case 1:
					logits[i] = 600 * g.NormFloat64()
				default:
					logits[i] = specials[g.Intn(len(specials))]
				}
			}
			want := make([]float64, n)
			softmaxGo(want, logits)
			var portable []float64
			kernelBodies(t, func(t *testing.T, body string) {
				what := fmt.Sprintf("%s: %d classes", body, n)
				got := make([]float64, n)
				Softmax(got, logits)
				requireLanes(t, what, got, func(i int) float64 { return want[i] }, true)
				if portable == nil {
					portable = got
				}
				requireLanes(t, what+" against the portable body", got, func(i int) float64 { return portable[i] }, !nanPayloadsPinned)
				inPlace := CopyVec(logits)
				Softmax(inPlace, inPlace)
				requireLanes(t, what+" in place", inPlace, func(i int) float64 { return portable[i] }, !nanPayloadsPinned)
			})
		}
	}
}

func TestExpKernelsZeroAlloc(t *testing.T) {
	logits := []float64{0.1, -2, 3, 0.5, 1, -1, 2, 0, 4, -3}
	probs := make([]float64, len(logits))
	h, b := make([]float64, 16), make([]float64, 16)
	kernelBodies(t, func(t *testing.T, body string) {
		allocs := testing.AllocsPerRun(50, func() {
			Softmax(probs, logits)
			TanhBias(h, b)
		})
		if allocs != 0 {
			t.Fatalf("%s: Softmax and TanhBias allocated %v times per run, want 0", body, allocs)
		}
	})
}

// FuzzExpTanhWide decodes a length (0–70), a shift and the lanes, as raw
// float64 bits, from arbitrary bytes. On both bodies, every lane of the exp
// kernel must give math.Exp(x − shift) and every lane of TanhBias
// math.Tanh(x + bias), with the bias the next lane's value. The seed corpus
// is in testdata/fuzz/FuzzExpTanhWide. Any NaN matches any NaN here (see
// nanPayloadsPinned); the bit-for-bit tests pin the payloads.
func FuzzExpTanhWide(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0] % 71)
		ops := data[1:]
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
		sub := operand()
		x := make([]float64, n+1)
		for i := range x {
			x[i] = operand()
		}
		kernelBodies(t, func(t *testing.T, body string) {
			checkExpSub(t, body, x[:n], sub, true)
			checkTanhBias(t, body, x[:n], x[1:], true)
		})
	})
}

// BenchmarkSoftmax measures one softmax of 10 classes, the output layer of
// the perfbench models, through each kernel body.
func BenchmarkSoftmax(b *testing.B) {
	g := rand.New(rand.NewSource(26))
	logits := make([]float64, 10)
	for i := range logits {
		logits[i] = 3 * g.NormFloat64()
	}
	probs := make([]float64, len(logits))
	for _, body := range []string{"go", "simd"} {
		b.Run(body, func(b *testing.B) {
			if body == "simd" && !haveExpSIMD {
				b.Skip("no vector exp kernel on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				Softmax(probs, logits)
			}
		})
	}
}

// BenchmarkLog measures the logs of 16 label probabilities on [1e-15, 1],
// one block of the models' test loss, through each kernel body.
func BenchmarkLog(b *testing.B) {
	g := rand.New(rand.NewSource(28))
	x := make([]float64, 16)
	for i := range x {
		x[i] = math.Pow(10, -15*g.Float64())
	}
	dst := make([]float64, len(x))
	for _, body := range []string{"go", "simd"} {
		b.Run(body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				logInto(dst, x)
			}
		})
	}
}

// BenchmarkLabelLogProbs measures the label log-probabilities of one block
// of the models' test loss, 16 examples of 10 classes, through each kernel
// body; per example it does what BenchmarkSoftmax and a math.Log do.
func BenchmarkLabelLogProbs(b *testing.B) {
	g := rand.New(rand.NewSource(29))
	logits := make([]float64, 16*10)
	for i := range logits {
		logits[i] = 3 * g.NormFloat64()
	}
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = g.Intn(10)
	}
	z, logp := make([]float64, len(logits)), make([]float64, len(labels))
	for _, body := range []string{"go", "simd"} {
		b.Run(body, func(b *testing.B) {
			if body == "simd" && !haveSIMD {
				b.Skip("no vector kernel bodies on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				copy(z, logits)
				LabelLogProbs(logp, z, 10, labels)
			}
		})
	}
}

// BenchmarkTanhBias measures the bias add and activation of a hidden layer
// of 16 units, the cold_mlp MLP's, through each kernel body.
func BenchmarkTanhBias(b *testing.B) {
	g := rand.New(rand.NewSource(27))
	pre, bias := make([]float64, 16), make([]float64, 16)
	for i := range pre {
		pre[i], bias[i] = 1.5*g.NormFloat64(), 0.1*g.NormFloat64()
	}
	h := make([]float64, len(pre))
	for _, body := range []string{"go", "simd"} {
		b.Run(body, func(b *testing.B) {
			if body == "simd" && !haveExpSIMD {
				b.Skip("no vector exp kernel on this host")
			}
			defer SetSIMD(SetSIMD(body == "simd"))
			for b.Loop() {
				copy(h, pre)
				TanhBias(h, bias)
			}
		})
	}
}
