package shapley

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestShardObservationsVerifyRejectsNonCanonicalCells pins the wire
// contract a remote worker's payload must meet: cells strictly ordered by
// (round, col). A stamped digest alone does not catch repeats or
// reordering, because the digest hashes the deduplicated, sorted cell map.
func TestShardObservationsVerifyRejectsNonCanonicalCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells []ObservedCell
		bad   bool
	}{
		{"canonical", []ObservedCell{{0, 1, 0.5}, {0, 2, 0.25}, {1, 0, 0.75}}, false},
		{"exact duplicate", []ObservedCell{{0, 1, 0.5}, {0, 1, 0.5}}, true},
		{"conflicting duplicate", []ObservedCell{{0, 1, 0.5}, {0, 1, 0.7}}, true},
		{"unsorted", []ObservedCell{{1, 0, 0.75}, {0, 1, 0.5}}, true},
	} {
		obs := &ShardObservations{Lo: 0, Hi: 4, Cells: tc.cells}
		obs.Stamp()
		err := obs.Verify()
		if tc.bad && (err == nil || !strings.Contains(err.Error(), "not strictly after")) {
			t.Errorf("%s: Verify = %v, want an ordering error", tc.name, err)
		}
		if !tc.bad && err != nil {
			t.Errorf("%s: Verify = %v, want nil", tc.name, err)
		}
	}
}

// runImported drives a coordinator plan whose every shard, across every
// wave, is observed by a separate worker-side plan (a fixed plan over the
// same budget and seed, on its own evaluator) through ObserveSlice and
// installed with ImportShard.
func runImported(t *testing.T, cfg MonteCarloConfig) (*MonteCarloPlan, *MonteCarloResult) {
	t.Helper()
	ctx := context.Background()
	p, err := NewMonteCarloPlan(ctx, duplicatedEvaluator(t, 500), cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewMonteCarloPlan(ctx, duplicatedEvaluator(t, 500), MonteCarloConfig{Samples: cfg.Samples, Seed: cfg.Seed, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for next := 0; next < p.Shards(); {
		for ; next < p.Shards(); next++ {
			lo, hi := p.ShardSlice(next)
			obs, err := worker.ObserveSlice(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ImportShard(next, obs); err != nil {
				t.Fatalf("shard %d: %v", next, err)
			}
			if got := p.ShardDigest(next); got != obs.Digest {
				t.Fatalf("shard %d digest %q after import, want %q", next, got, obs.Digest)
			}
		}
		if _, err := p.Advance(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestImportShardMatchesLocalObservation pins remote execution against
// local execution for a fixed plan and a multi-wave tolerance plan: the
// values, the observation list, and every shard digest are identical.
func TestImportShardMatchesLocalObservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MonteCarloConfig
	}{
		{"fixed", planConfig(3)},
		{"tolerance", adaptiveConfig(2, 1e-12)},
	} {
		local, want := runAdaptive(t, tc.cfg, false)
		remote, got := runImported(t, tc.cfg)
		if len(remote.Waves()) != len(local.Waves()) {
			t.Fatalf("%s: %d waves imported, %d local", tc.name, len(remote.Waves()), len(local.Waves()))
		}
		if tc.name == "tolerance" && len(local.Waves()) < 2 {
			t.Fatalf("%s: expected several waves, got %v", tc.name, local.Waves())
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("%s: imported values diverge:\n%v\nvs\n%v", tc.name, got.Values, want.Values)
		}
		if !reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) {
			t.Fatalf("%s: imported observation list diverges", tc.name)
		}
		for shard := 0; shard < local.Shards(); shard++ {
			if remote.ShardDigest(shard) != local.ShardDigest(shard) {
				t.Fatalf("%s: shard %d digest %q, local %q", tc.name, shard, remote.ShardDigest(shard), local.ShardDigest(shard))
			}
		}
	}
}

// TestImportShardRejectsMisaddressedPayloads pins the import guards: a
// payload for a different slice and a cell outside the plan's dimensions
// fail, even when the payload's digest verifies.
func TestImportShardRejectsMisaddressedPayloads(t *testing.T) {
	ctx := context.Background()
	p, err := NewMonteCarloPlan(ctx, duplicatedEvaluator(t, 500), planConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.ShardSlice(1)
	obs, err := p.ObserveSlice(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ImportShard(0, obs); err == nil || !strings.Contains(err.Error(), "planned slice") {
		t.Fatalf("import into the wrong shard = %v, want a slice mismatch", err)
	}
	for _, c := range []ObservedCell{{Round: p.t, Col: 0}, {Round: 0, Col: p.store.NumColumns()}, {Round: -1, Col: 0}} {
		bad := &ShardObservations{Lo: lo, Hi: hi, Cells: []ObservedCell{c}}
		bad.Stamp()
		if err := p.ImportShard(1, bad); err == nil || !strings.Contains(err.Error(), "outside plan dimensions") {
			t.Fatalf("import of cell (%d,%d) = %v, want a dimension error", c.Round, c.Col, err)
		}
	}
	if p.ShardDigest(1) != "" {
		t.Fatal("a rejected import installed observations")
	}
	if err := p.ImportShard(1, obs); err != nil {
		t.Fatal(err)
	}
}
