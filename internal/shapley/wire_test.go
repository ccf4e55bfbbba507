package shapley

import (
	"context"
	"reflect"
	"testing"

	"comfedsv/internal/utility"
)

// runImported drives a coordinator plan whose every wave, cut into
// shards chunks, is paid chunk by chunk by a separate worker-side
// evaluator over the same trace: the chunk's cell list goes out as a lease
// batch, the worker pays it through Pay, and the coordinator preloads the
// answer and pays the chunk from cache. It returns the result and every
// chunk's digest.
func runImported(t *testing.T, cfg MonteCarloConfig, shards int) (*Result, []string) {
	t.Helper()
	ctx := context.Background()
	src := duplicatedEvaluator(t, 500)
	p := newPlan(t, src, cfg)
	worker := duplicatedEvaluator(t, 500)
	var digests []string
	for more := true; more; {
		cells, err := p.Cells(ctx)
		if err != nil {
			t.Fatal(err)
		}
		k := max(1, min(shards, len(cells)))
		for i := range k {
			lease := cells[i*len(cells)/k : (i+1)*len(cells)/k]
			paid, err := worker.Pay(ctx, utility.NewCellBatch(p.n, lease, make([]float64, len(lease))), 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.Preload(paid); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
		}
		calls := src.Calls()
		vals, d := payWave(t, ctx, src, cells, shards, "serial")
		if got := src.Calls(); got != calls {
			t.Fatalf("wave paid %d evaluations after preloading its cells, want 0", got-calls)
		}
		digests = append(digests, d...)
		if more, err = p.Advance(ctx, vals); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res, digests
}

// TestImportShardMatchesLocalObservation pins remote payment against
// local payment for a fixed plan and a multi-wave tolerance plan: the
// values, the observation list, and every chunk digest are identical.
func TestImportShardMatchesLocalObservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    MonteCarloConfig
		shards int
	}{
		{"fixed", planConfig(), 3},
		{"tolerance", adaptiveConfig(1e-12), 2},
	} {
		e := duplicatedEvaluator(t, 500)
		local := newPlan(t, e, tc.cfg)
		want, wantDigests := runChunked(t, e, local, tc.shards, "serial")
		got, gotDigests := runImported(t, tc.cfg, tc.shards)
		if tc.name == "tolerance" && len(local.Waves()) < 2 {
			t.Fatalf("%s: expected several waves, got %v", tc.name, local.Waves())
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("%s: imported values diverge:\n%v\nvs\n%v", tc.name, got.Values, want.Values)
		}
		if !reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) {
			t.Fatalf("%s: imported observation list diverges", tc.name)
		}
		if !reflect.DeepEqual(gotDigests, wantDigests) {
			t.Fatalf("%s: chunk digests %q, local %q", tc.name, gotDigests, wantDigests)
		}
	}
}
