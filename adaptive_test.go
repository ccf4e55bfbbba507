package comfedsv

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// adaptiveOptions returns a small tolerance-mode configuration: budget 40
// cuts into waves [16, 32, 40], and the loose tolerance stops the run at
// the second wave bound.
func adaptiveOptions(seed int64) Options {
	opts := DefaultOptions(10)
	opts.Rounds = 5
	opts.ClientsPerRound = 2
	opts.Model = MLP
	opts.HiddenUnits = 6
	opts.LearningRate = 0.1
	opts.MonteCarloSamples = 40
	opts.Tolerance = 100
	opts.Seed = seed
	return opts
}

// TestAdaptiveReportByteIdenticalAcrossShards is the facade-level
// determinism guarantee for tolerance mode: the stopping wave and the
// serialized report are byte-identical for shard counts 1, 2, and 8 and
// parallelism 1 and 4, inline and run-backed alike.
func TestAdaptiveReportByteIdenticalAcrossShards(t *testing.T) {
	clients, test := makeClients(t, 6, 20, 40, 311)
	base := adaptiveOptions(311)

	encode := func(shards, parallelism int) []byte {
		opts := base
		opts.Shards = shards
		opts.Parallelism = parallelism
		rep, err := ValueCtx(context.Background(), clients, test, opts)
		if err != nil {
			t.Fatalf("shards=%d parallelism=%d: %v", shards, parallelism, err)
		}
		if rep.ObservationsBudget != base.MonteCarloSamples {
			t.Fatalf("observations budget %d, want %d", rep.ObservationsBudget, base.MonteCarloSamples)
		}
		if rep.ObservationsUsed <= 0 || rep.ObservationsUsed >= rep.ObservationsBudget {
			t.Fatalf("observations used %d, want an early stop within budget %d", rep.ObservationsUsed, rep.ObservationsBudget)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	want := encode(1, 1)
	for _, shards := range []int{2, 8} {
		for _, parallelism := range []int{1, 4} {
			if got := encode(shards, parallelism); !bytes.Equal(want, got) {
				t.Fatalf("shards=%d parallelism=%d adaptive report differs:\n%s\nvs\n%s", shards, parallelism, got, want)
			}
		}
	}

	// Run-backed over a warm shared cache must not change a byte either.
	tr, err := TrainCtx(context.Background(), clients, test, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		opts := base
		opts.Shards = shards
		opts.Parallelism = 3
		rep, _, err := ValueRunCtx(context.Background(), tr, opts)
		if err != nil {
			t.Fatalf("run-backed shards=%d: %v", shards, err)
		}
		body, _ := json.Marshal(rep)
		if !bytes.Equal(want, body) {
			t.Fatalf("run-backed shards=%d adaptive report differs from inline:\n%s\nvs\n%s", shards, body, want)
		}
	}
}

// TestAdaptiveValuationConcurrentWavesMatchSerial drives the staged
// adaptive Valuation the way the scheduler does — each wave's shards on
// separate goroutines — and requires the byte-identical report (run with
// -race to hammer the shared plan and the job's cell list).
func TestAdaptiveValuationConcurrentWavesMatchSerial(t *testing.T) {
	clients, test := makeClients(t, 6, 20, 40, 313)
	opts := adaptiveOptions(313)
	opts.Shards = 4
	opts.Parallelism = 2

	want, err := ValueCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBody, _ := json.Marshal(want)

	tr, err := TrainCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValuation(tr, opts)
	pending, err := v.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for pending > 0 {
		var wg sync.WaitGroup
		errs := make([]error, pending)
		for i := 0; i < pending; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = v.ObserveShard(context.Background(), next+i)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", next+i, err)
			}
		}
		next += pending
		pending, err = v.Complete(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := v.Extract(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotBody, _ := json.Marshal(got)
	if !bytes.Equal(wantBody, gotBody) {
		t.Fatalf("concurrent adaptive valuation differs from serial:\n%s\nvs\n%s", gotBody, wantBody)
	}
}

// TestAdaptiveSavesUtilityCallsWithinTolerance is the payoff contract of
// tolerance mode on a job large enough for early stopping to matter: 24
// separable 2-D clients put the full-participation warm-up round past the
// exact FedSV enumeration limit, so Monte-Carlo observation cells dominate
// the utility bill. At tolerance 0.05 the run must stop before its
// 400-permutation budget, pay at least 30% fewer utility calls than the
// fixed-budget run, and keep every ComFedSV value within the tolerance of
// the fixed-budget one. All three quantities are deterministic.
func TestAdaptiveSavesUtilityCallsWithinTolerance(t *testing.T) {
	mk := func(off float64, points int) Client {
		var c Client
		for i := 0; i < points; i++ {
			x := off + float64(i)*0.17
			label := 0
			if x > 1 {
				label = 1
			}
			c.X = append(c.X, []float64{x, 1 - x})
			c.Y = append(c.Y, label)
		}
		return c
	}
	var clients []Client
	for i := 0; i < 24; i++ {
		clients = append(clients, mk(-0.5+float64(i)*0.15, 24))
	}
	test := mk(0.25, 32)
	opts := DefaultOptions(2)
	opts.Rounds = 10
	opts.ClientsPerRound = 3
	opts.Seed = 83
	opts.MonteCarloSamples = 400

	fixed, err := ValueCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.05
	opts.Tolerance = tol
	adaptive, err := ValueCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}

	if adaptive.ObservationsUsed >= adaptive.ObservationsBudget {
		t.Fatalf("no early stop: used %d of %d permutations", adaptive.ObservationsUsed, adaptive.ObservationsBudget)
	}
	if savings := 1 - float64(adaptive.UtilityCalls)/float64(fixed.UtilityCalls); savings < 0.30 {
		t.Errorf("utility calls %d -> %d save %.1f%%, want at least 30%%", fixed.UtilityCalls, adaptive.UtilityCalls, savings*100)
	}
	var maxDev float64
	for i, v := range adaptive.ComFedSV {
		maxDev = math.Max(maxDev, math.Abs(v-fixed.ComFedSV[i]))
	}
	if maxDev > tol {
		t.Errorf("max |ComFedSV - fixed| = %v, past tolerance %v", maxDev, tol)
	}
	t.Logf("permutations %d/%d, utility calls %d -> %d, max deviation %.4g",
		adaptive.ObservationsUsed, adaptive.ObservationsBudget, fixed.UtilityCalls, adaptive.UtilityCalls, maxDev)
}

// TestAdaptiveOptionValidation pins the facade's knob contract: the
// contradictory and malformed combinations fail loudly before any
// training-trace work, and MaxPermutations works as the budget alias.
func TestAdaptiveOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative max permutations", func(o *Options) { o.MaxPermutations = -1 }, "negative MaxPermutations"},
		{"negative Monte-Carlo samples", func(o *Options) { o.Tolerance = 0; o.MonteCarloSamples = -5 }, "negative MonteCarloSamples"},
		{"max permutations without tolerance", func(o *Options) { o.Tolerance = 0; o.MaxPermutations = 40 }, "requires Tolerance"},
		{"budget mismatch", func(o *Options) { o.MaxPermutations = 30 }, "disagree"},
		{"tolerance without budget", func(o *Options) { o.MonteCarloSamples = 0 }, "positive permutation budget"},
		{"negative tolerance", func(o *Options) { o.Tolerance = -0.5 }, "positive and finite"},
		{"nan tolerance", func(o *Options) { o.Tolerance = math.NaN() }, "positive and finite"},
		{"inf tolerance", func(o *Options) { o.Tolerance = math.Inf(1) }, "positive and finite"},
	} {
		opts := adaptiveOptions(1)
		tc.mut(&opts)
		_, err := valuationBudget(opts)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// MaxPermutations alone (with Tolerance) is the budget.
	opts := adaptiveOptions(1)
	opts.MonteCarloSamples = 0
	opts.MaxPermutations = 40
	budget, err := valuationBudget(opts)
	if err != nil || budget != 40 {
		t.Fatalf("MaxPermutations-only budget = (%d, %v), want (40, nil)", budget, err)
	}
	// Matching explicit values are accepted.
	opts.MonteCarloSamples = 40
	if _, err := valuationBudget(opts); err != nil {
		t.Fatalf("matching budgets rejected: %v", err)
	}
	// Fixed-budget and exact submissions are untouched.
	opts = adaptiveOptions(1)
	opts.Tolerance = 0
	budget, err = valuationBudget(opts)
	if err != nil || budget != 40 {
		t.Fatalf("fixed budget = (%d, %v), want (40, nil)", budget, err)
	}
}

// TestAdaptiveCancellationMidWave pins cooperative cancellation at the
// facade: cancelling between waves makes the next stage return ctx.Err().
// It runs over 22 clients, whose later waves list new cells and so
// schedule shards.
func TestAdaptiveCancellationMidWave(t *testing.T) {
	clients, test := wideClients(22)
	opts := widePayerOptions()["wide/tolerance"] // never converges: always a next wave to cancel

	tr, err := TrainCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValuation(tr, opts)
	ctx, cancel := context.WithCancel(context.Background())
	pending, err := v.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pending; i++ {
		if err := v.ObserveShard(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	more, err := v.Complete(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if more == 0 {
		t.Fatal("wave 1 scheduled no shard — cannot test mid-wave cancellation")
	}
	cancel()
	if err := v.ObserveShard(ctx, pending); err != context.Canceled {
		t.Fatalf("ObserveShard after cancel = %v, want context.Canceled", err)
	}
	if _, err := v.Complete(ctx); err != context.Canceled {
		t.Fatalf("Complete after cancel = %v, want context.Canceled", err)
	}
}
