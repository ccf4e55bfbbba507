package comfedsv

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// TestReportByteIdenticalAcrossShards is the facade-level determinism
// guarantee of the sharded observation stage: the same seed and submission
// must serialize to the byte-identical report for shard counts 1, 2, and
// 8, inline and run-backed alike.
func TestReportByteIdenticalAcrossShards(t *testing.T) {
	clients, test := makeClients(t, 6, 20, 40, 311)
	base := DefaultOptions(10)
	base.Rounds = 5
	base.ClientsPerRound = 2
	base.Model = MLP
	base.HiddenUnits = 6
	base.LearningRate = 0.1
	base.MonteCarloSamples = 25

	encode := func(shards int) []byte {
		opts := base
		opts.Shards = shards
		rep, err := ValueCtx(context.Background(), clients, test, opts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return body
	}

	want := encode(1)
	for _, s := range []int{2, 8} {
		if got := encode(s); !bytes.Equal(want, got) {
			t.Fatalf("shards=%d report differs from shards=1:\n%s\nvs\n%s", s, got, want)
		}
	}

	// Run-backed over a warm shared cache: every shard count must still
	// produce the identical bytes, with shards layered on parallelism.
	tr, err := TrainCtx(context.Background(), clients, test, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 8} {
		opts := base
		opts.Shards = s
		opts.Parallelism = 3
		rep, _, err := ValueRunCtx(context.Background(), tr, opts)
		if err != nil {
			t.Fatalf("run-backed shards=%d: %v", s, err)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, body) {
			t.Fatalf("run-backed shards=%d report differs from inline shards=1:\n%s\nvs\n%s", s, body, want)
		}
	}

	// The exact pipeline's one wave, cut into 2, T and T+3 shards, must
	// match one shard.
	base.MonteCarloSamples = 0
	want = encode(1)
	for _, s := range []int{2, base.Rounds, base.Rounds + 3} {
		if got := encode(s); !bytes.Equal(want, got) {
			t.Fatalf("exact pipeline: shards=%d report differs from shards=1:\n%s\nvs\n%s", s, got, want)
		}
	}
}

// TestValuationConcurrentShardsMatchSerial drives the staged Valuation the
// way the scheduler does — shards on separate goroutines — and requires
// the byte-identical report (run with -race to hammer the shared plan and
// session state), for Monte-Carlo permutation shards and for the exact
// pipeline's shards.
func TestValuationConcurrentShardsMatchSerial(t *testing.T) {
	clients, test := makeClients(t, 6, 20, 40, 313)
	base := DefaultOptions(10)
	base.Rounds = 5
	base.ClientsPerRound = 2
	base.LearningRate = 0.1
	base.Parallelism = 2
	for _, tc := range []struct{ samples, shards int }{{25, 4}, {0, 2}, {0, 5}, {0, 8}} {
		opts := base
		opts.MonteCarloSamples = tc.samples
		opts.Shards = tc.shards
		concurrentShardsMatchSerial(t, clients, test, opts)
	}
}

func concurrentShardsMatchSerial(t *testing.T, clients []Client, test Client, opts Options) {
	t.Helper()

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
	shards, err := v.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = v.ObserveShard(context.Background(), i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if more, err := v.Complete(context.Background()); err != nil {
		t.Fatal(err)
	} else if more != 0 {
		t.Fatalf("fixed-budget Complete scheduled %d more shards, want 0", more)
	}
	got, err := v.Extract(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotBody, _ := json.Marshal(got)
	if !bytes.Equal(wantBody, gotBody) {
		t.Fatalf("samples=%d shards=%d: concurrent-shard valuation differs from serial:\n%s\nvs\n%s", opts.MonteCarloSamples, opts.Shards, gotBody, wantBody)
	}
	stats := v.Stats()
	if stats.Hits+stats.Misses != got.UtilityCalls {
		t.Fatalf("session ledger %+v does not sum to %d utility calls", stats, got.UtilityCalls)
	}
}
