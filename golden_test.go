package comfedsv

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"comfedsv/internal/rng"
	"comfedsv/internal/utility"
)

// goldenSum is the hex SHA-256 of b.
func goldenSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenValuation drives a staged Valuation serially and returns the
// JSON report plus one "cells,digest" line per observation shard, in
// scheduling order across every wave: how many cells the shard paid and
// the digest of its cell batch. The batch PayCells returns for the
// shard's lease cells carries the same digest.
func goldenValuation(t *testing.T, tr *TrainedRun, opts Options) (report []byte, shards string) {
	t.Helper()
	ctx := context.Background()
	v := NewValuation(tr, opts)
	pending, err := v.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for pending > 0 {
		for i := 0; i < pending; i++ {
			if err := v.ObserveShard(ctx, next+i); err != nil {
				t.Fatal(err)
			}
		}
		next += pending
		if pending, err = v.Complete(ctx); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := v.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for shard := 0; shard < v.Shards(); shard++ {
		digest := v.ShardDigest(shard)
		if digest == "" {
			t.Fatalf("shard %d has no digest", shard)
		}
		lease, err := v.ShardCells(ctx, shard)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := tr.PayCells(ctx, lease, 1)
		if err != nil {
			t.Fatal(err)
		}
		if wire.Digest != digest {
			t.Fatalf("shard %d digest %s, but a worker's batch for its lease carries %s", shard, digest, wire.Digest)
		}
		fmt.Fprintf(&b, "%d,%s\n", len(lease.Cells), digest)
	}
	return report, b.String()
}

// TestGoldenReportsAndShardDigests pins report bytes, shard sizes, shard
// digests, and the worker wire payload to constants, so they cannot drift
// between versions. Recovery re-derives shard digests and compares them
// against journals an earlier binary wrote, and stored reports are served
// as-is. A refactor that keeps every within-version determinism suite
// green but changes any of these bytes would break both silently; this
// test is the cross-version tripwire. Floating-point results depend on
// whether the compiler fuses multiply-adds, which Go permits on some
// architectures, so the constants are pinned for amd64 only. On amd64 they
// also depend on math.Exp's path: it fuses its multiply-adds where the
// runtime reports AVX and FMA, and not on other CPUs or under
// GODEBUG=cpu.fma=off, so each case pins both paths' bytes. The unfused
// bytes are those the code gave before the exp and tanh kernels existed.
func TestGoldenReportsAndShardDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constants are pinned on amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	// exp(0.375) differs in its last bit between the two paths.
	fused := math.Float64bits(math.Exp(0.375)) == 0x3ff747a513dbef6b
	clients, test := makeClients(t, 6, 20, 40, 331)
	base := DefaultOptions(10)
	base.Rounds = 5
	base.ClientsPerRound = 2
	base.Model = MLP
	base.HiddenUnits = 6
	base.LearningRate = 0.1
	base.Seed = 331
	tr, err := TrainCtx(context.Background(), clients, test, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                      string
		samples, shards           int
		tolerance                 float64
		wantReport, wantSha       string
		unfusedReport, unfusedSha string
	}{
		{
			"exact", 0, 1, 0,
			"510e9ee636c8b9bca8c01564b34e7dc3c10b3f017fb123d234dc33a587283726",
			"dd3b9a296a90f7621d144bd4e025c9a6a4855d7c5487dda77aa1d1938e428133",
			"9a72410c56cd8ac9c85370d87a2e32694aacbf161ccd2b933322d3508706451e",
			"448c193c6afdb843f99c0e0877484c0adea01bdde6ab5eca4f2f7ab36c2a5045",
		},
		{
			"fixed/1", 25, 1, 0,
			"df821586e52705b9f47058a0ee8ec43c347a7bbb6da2fb07a08d299335b27f98",
			"dd3b9a296a90f7621d144bd4e025c9a6a4855d7c5487dda77aa1d1938e428133",
			"fa3b62312b2e11e1efe3731f1c61a6f67ca0735d53c3c8325f074bc6b7f59b76",
			"448c193c6afdb843f99c0e0877484c0adea01bdde6ab5eca4f2f7ab36c2a5045",
		},
		{
			"fixed/3", 25, 3, 0,
			"df821586e52705b9f47058a0ee8ec43c347a7bbb6da2fb07a08d299335b27f98",
			"b8c8f32315302f40e8592a1244b0b1c935c9541e1083cd214e22cf939707f53c",
			"fa3b62312b2e11e1efe3731f1c61a6f67ca0735d53c3c8325f074bc6b7f59b76",
			"5fdbc5b8fd3c887cf580354de08a7a0a21c34d5626354eb4804b88b0d625c5d0",
		},
		{
			"fixed/7/4", 7, 4, 0,
			"6010cefc1c6cd2c9c178df5783a352a952ab744e0bcaa294de571509a199b67d",
			"9e47b1aac8dbccdda5bf670c0f96d07d6ef3600e662711bf7b8d0d5b819b0f30",
			"7eea29390c8d2e692d9585d45a8e129032daf6b15698ace4a43b427c7dbd8dcd",
			"c519c9daa65ec1d75d9e11f95123e3681e64a8945c7cf51a4882f927ffaa7354",
		},
		{
			"fixed/over-sharded", 25, 64, 0,
			"df821586e52705b9f47058a0ee8ec43c347a7bbb6da2fb07a08d299335b27f98",
			"ab5300c1183d1df22540fe929688142a2a964f35b8aac7aa52a35de4bc23695b",
			"fa3b62312b2e11e1efe3731f1c61a6f67ca0735d53c3c8325f074bc6b7f59b76",
			"376a671f45311d5ab5608530720460035718a8cfc1ed39788c13ffcd979a7129",
		},
		// Wave 0 of a tolerance case holds every subset of every round's
		// selection (exact FedSV's cells), so its later waves list no new
		// cell and schedule no shard: its shards are wave 0's.
		{
			"tolerance/early-stop/1", 40, 1, 100,
			"8d872214153a902fd4c0ed849082a58b9993dfc7ae311a2ef9d9e137fbfee5df",
			"dd3b9a296a90f7621d144bd4e025c9a6a4855d7c5487dda77aa1d1938e428133",
			"317bda549b9beada872c56b65a684f6c2a0faa39161e0d64556551a4739cfb80",
			"448c193c6afdb843f99c0e0877484c0adea01bdde6ab5eca4f2f7ab36c2a5045",
		},
		{
			"tolerance/early-stop/3", 40, 3, 100,
			"8d872214153a902fd4c0ed849082a58b9993dfc7ae311a2ef9d9e137fbfee5df",
			"fed5f78b2f597b9a05b4a11329dc1d16397b5e738976edfd1598e6c9c1b70f29",
			"317bda549b9beada872c56b65a684f6c2a0faa39161e0d64556551a4739cfb80",
			"bbbfd7db6d4f732e2566585a63ece96edda0c37c090b174f187d232027f7896f",
		},
		{
			"tolerance/exhausted/1", 40, 1, 1e-9,
			"347dd7e932a50914684bfcd4666a632abaa399335500377b0f0839abc7ee67fb",
			"dd3b9a296a90f7621d144bd4e025c9a6a4855d7c5487dda77aa1d1938e428133",
			"ea922473b617d95a81b7c72268eb2dd07c0c9755cb29c20d6b692d7710719103",
			"448c193c6afdb843f99c0e0877484c0adea01bdde6ab5eca4f2f7ab36c2a5045",
		},
		{
			"tolerance/exhausted/3", 40, 3, 1e-9,
			"347dd7e932a50914684bfcd4666a632abaa399335500377b0f0839abc7ee67fb",
			"fed5f78b2f597b9a05b4a11329dc1d16397b5e738976edfd1598e6c9c1b70f29",
			"ea922473b617d95a81b7c72268eb2dd07c0c9755cb29c20d6b692d7710719103",
			"bbbfd7db6d4f732e2566585a63ece96edda0c37c090b174f187d232027f7896f",
		},
	} {
		opts := base
		opts.MonteCarloSamples = tc.samples
		opts.Shards = tc.shards
		opts.Tolerance = tc.tolerance
		if !fused {
			tc.wantReport, tc.wantSha = tc.unfusedReport, tc.unfusedSha
		}
		report, shards := goldenValuation(t, tr, opts)
		if got := goldenSum(report); got != tc.wantReport {
			t.Errorf("%s: report sha256 %s, want %s\n%s", tc.name, got, tc.wantReport, report)
		}
		if got := goldenSum([]byte(shards)); got != tc.wantSha {
			t.Errorf("%s: shard slices/digests sha256 %s, want %s\n%s", tc.name, got, tc.wantSha, shards)
		}
	}

	// The inline path serializes to the same bytes as the staged one.
	opts := base
	opts.MonteCarloSamples = 25
	opts.Shards = 3
	rep, err := ValueCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(rep)
	staged, _ := goldenValuation(t, tr, opts)
	if string(body) != string(staged) {
		t.Errorf("inline report differs from staged:\n%s\nvs\n%s", body, staged)
	}

	// The remote-worker payload for one lease, in both wire formats: the
	// format-1 cell objects it was first pinned as, and the format-2
	// block a worker sends now. The lease is every prefix cell, within its
	// round's selection, of permutations [3,11) of the Monte-Carlo plan's
	// seeded stream.
	n := tr.NumClients()
	g := rng.New(opts.Seed + 1)
	perms := make([][]int, 11)
	for m := range perms {
		perms[m] = g.Perm(n)
	}
	var cells []utility.Cell
	for round, rd := range tr.Run().Rounds {
		sel := utility.FromMembers(n, rd.Selected)
		for _, perm := range perms[3:] {
			prefix := utility.NewSet(n)
			for _, c := range perm {
				if !sel.Contains(c) {
					break
				}
				prefix = prefix.With(c)
				cells = append(cells, utility.Cell{Round: round, Subset: prefix})
			}
		}
	}
	lease := utility.NewCellBatch(n, cells, make([]float64, len(cells)))
	lease.Cells = slices.CompactFunc(lease.Cells, func(a, b utility.SnapshotCell) bool {
		return a.Round == b.Round && a.Mask == b.Mask && a.Key == b.Key
	})
	lease.Stamp()
	payload, err := tr.PayCells(context.Background(), lease, 2)
	if err != nil {
		t.Fatal(err)
	}
	wireV1, _ := json.Marshal(struct {
		N      int                    `json:"n"`
		Cells  []utility.SnapshotCell `json:"cells"`
		Digest string                 `json:"digest"`
	}{payload.N, payload.Cells, payload.Digest})
	wantV1, want := "0823fb62731ee8d5dc173b8edd59d1b47eab7a1d4b4ebeb1de3ff3879a461ad4", "db6a6f9e42a924033572c462b02805f025c87b64f1b3f28aae16e87c7ac63e63"
	if !fused {
		wantV1, want = "0481923cb5058e1c4410d5306898da4124d5c88dddce2bd0f902acffddaca9c5", "3b5a317b705b8e940c267d6974e1ff4cbbf202f34c9a44c8a17de42419166751"
	}
	if got := goldenSum(wireV1); got != wantV1 {
		t.Errorf("PayCells format-1 payload sha256 %s, want %s\n%s", got, wantV1, wireV1)
	}
	wire, _ := json.Marshal(payload)
	if got := goldenSum(wire); got != want {
		t.Errorf("PayCells payload sha256 %s, want %s\n%s", got, want, wire)
	}
}
