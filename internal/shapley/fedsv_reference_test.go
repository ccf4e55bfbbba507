package shapley

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

// referenceFedSV is exact FedSV as a per-cell loop: an inline copy of
// Exact over each round's selection that asks the source for both
// coalitions of every Shapley term, one Utility call at a time. It is the
// oracle FedSVCtx must reproduce bit for bit.
func referenceFedSV(e *utility.Evaluator) []float64 {
	n := e.Run().NumClients()
	values := make([]float64, n)
	for t, rd := range e.Run().Rounds {
		sel := rd.Selected
		k := len(sel)
		bt := newBinomTable(k)
		u := func(mask uint64) float64 {
			if mask == 0 {
				return 0
			}
			s := utility.NewSet(n)
			for b := 0; b < k; b++ {
				if mask&(1<<uint(b)) != 0 {
					s.Add(sel[b])
				}
			}
			return e.Utility(t, s)
		}
		full := uint64(1)<<uint(k) - 1
		for pos, client := range sel {
			bit := uint64(1) << uint(pos)
			rest := full &^ bit
			var total float64
			for sub := uint64(0); ; sub = (sub - rest) & rest {
				size := bits.OnesCount64(sub)
				w := 1 / (float64(k) * bt.choose(k-1, size))
				total += w * (u(sub|bit) - u(sub))
				if sub == rest {
					break
				}
			}
			values[client] += total
		}
	}
	return values
}

// referenceFedSVMonteCarlo is sampled-permutation FedSV as a serial
// loop: every prefix of every permutation is one Utility call, in
// permutation order. It is the oracle FedSVMonteCarloCtx must reproduce
// bit for bit.
func referenceFedSVMonteCarlo(e *utility.Evaluator, samples int, seed int64) []float64 {
	n := e.Run().NumClients()
	g := rng.New(seed)
	values := make([]float64, n)
	for t, rd := range e.Run().Rounds {
		sel := rd.Selected
		k := len(sel)
		inv := 1 / float64(samples)
		for m := 0; m < samples; m++ {
			order := g.Perm(k)
			prefix := utility.NewSet(n)
			prev := 0.0
			for _, pos := range order {
				client := sel[pos]
				prefix.Add(client)
				cur := e.Utility(t, prefix)
				values[client] += inv * (cur - prev)
				prev = cur
			}
		}
	}
	return values
}

// sameBits fails unless got and want agree bit for bit, signed zeros
// included.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value[%d] = %v, reference loop gave %v", label, i, got[i], want[i])
		}
	}
}

// TestFedSVMatchesReferenceLoop pins exact FedSV's batch path against the
// per-cell reference loop over eight seeds and three worker counts: the
// same values to the bit and the same distinct-cell bill. Every run gets
// a fresh evaluator, so a shared cache is not why they agree.
func TestFedSVMatchesReferenceLoop(t *testing.T) {
	for seed := int64(700); seed < 708; seed++ {
		run := testEvaluator(t, 6, 4, 3, seed).Run()
		ref := utility.NewEvaluator(run)
		want := referenceFedSV(ref)
		for _, workers := range []int{1, 2, 4} {
			e := utility.NewEvaluator(run)
			got, err := FedSVCtx(context.Background(), e, workers)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d workers %d", seed, workers)
			sameBits(t, label, got, want)
			if e.Calls() != ref.Calls() {
				t.Fatalf("%s: %d utility calls, reference paid %d", label, e.Calls(), ref.Calls())
			}
		}
	}
}

// TestFedSVMonteCarloMatchesReferenceLoop pins the sampled estimator's
// batch path against the serial reference loop over eight seeds and
// three worker counts, on a 6-client run and on a 70-client run whose
// full first round selects more than 20 clients over a universe wider
// than one 64-bit mask word.
func TestFedSVMonteCarloMatchesReferenceLoop(t *testing.T) {
	for _, tc := range []struct{ clients, rounds, perRound, samples int }{
		{6, 4, 3, 7},
		{70, 2, 3, 3},
	} {
		for seed := int64(710); seed < 718; seed++ {
			run := testEvaluator(t, tc.clients, tc.rounds, tc.perRound, seed).Run()
			ref := utility.NewEvaluator(run)
			want := referenceFedSVMonteCarlo(ref, tc.samples, seed)
			for _, workers := range []int{1, 2, 4} {
				e := utility.NewEvaluator(run)
				got, err := FedSVMonteCarloCtx(context.Background(), e, tc.samples, seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%d clients seed %d workers %d", tc.clients, seed, workers)
				sameBits(t, label, got, want)
				if e.Calls() != ref.Calls() {
					t.Fatalf("%s: %d utility calls, reference paid %d", label, e.Calls(), ref.Calls())
				}
			}
		}
	}
}

// TestFedSVAutoCtxRule pins the exact-or-sampled rule: exact FedSV while
// every round selects at most 20 clients, otherwise ⌈K·ln K⌉+1 seeded
// permutations per round for the largest selection K.
func TestFedSVAutoCtxRule(t *testing.T) {
	ctx := context.Background()
	small := testEvaluator(t, 6, 3, 2, 720).Run()
	got, err := FedSVAutoCtx(ctx, utility.NewEvaluator(small), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "6 clients", got, referenceFedSV(utility.NewEvaluator(small)))

	wide := testEvaluator(t, 22, 2, 2, 721).Run()
	got, err = FedSVAutoCtx(ctx, utility.NewEvaluator(wide), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	samples := int(math.Ceil(22*math.Log(22))) + 1
	sameBits(t, "22 clients", got, referenceFedSVMonteCarlo(utility.NewEvaluator(wide), samples, 5))
	if _, err := FedSVCtx(ctx, utility.NewEvaluator(wide), 2); err == nil {
		t.Fatal("exact FedSV accepted a 22-client round")
	}
}
