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

	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// goldenSum is the hex SHA-256 of b.
func goldenSum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenValuation drives a staged Valuation serially and returns the
// JSON report plus one "lo,hi,ok,digest" line per observation shard, in
// scheduling order across every wave: a Monte-Carlo shard's permutation
// slice (ok true), or 0,0,false for an exact shard. Every shard's digest
// is that of its cell batch, and the batch PayCells returns for the
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
	mcPlan, ok := v.plan.(*shapley.MonteCarloPlan)
	var b strings.Builder
	for shard := 0; shard < v.Shards(); shard++ {
		var lo, hi int
		if ok {
			lo, hi = mcPlan.ShardSlice(shard)
		}
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
		fmt.Fprintf(&b, "%d,%d,%v,%s\n", lo, hi, ok, digest)
	}
	return report, b.String()
}

// TestGoldenReportsAndShardDigests pins report bytes, shard slices, shard
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
			"875b91e5a5a5bcdd54632d14601fbbf1510c6f25f24fdbe601a869cc51ab324a",
			"9a72410c56cd8ac9c85370d87a2e32694aacbf161ccd2b933322d3508706451e",
			"b9c4611e5bcf8c87ac235c14d612907caa2f6cc008d2c5e9e254f0f1e58f3414",
		},
		{
			"fixed/1", 25, 1, 0,
			"df821586e52705b9f47058a0ee8ec43c347a7bbb6da2fb07a08d299335b27f98",
			"0097b8554e2219661efb853f91311b595769abe0c4cfe157e69532952b14a926",
			"fa3b62312b2e11e1efe3731f1c61a6f67ca0735d53c3c8325f074bc6b7f59b76",
			"6a70a26ae984380d04ac742359ea0587b95892f8ca6a2dac8e156bf1496632c6",
		},
		{
			"fixed/3", 25, 3, 0,
			"df821586e52705b9f47058a0ee8ec43c347a7bbb6da2fb07a08d299335b27f98",
			"7f48fbe1e2f49feb7f59e3cfe35bf27f8f3e95b70d0e3ed93becbf3de55fe2b1",
			"fa3b62312b2e11e1efe3731f1c61a6f67ca0735d53c3c8325f074bc6b7f59b76",
			"258c1aab0159995bc585de1422fca3529dceb5fb5e85d9a9da61e0b52ed2260d",
		},
		{
			"fixed/7/4", 7, 4, 0,
			"6010cefc1c6cd2c9c178df5783a352a952ab744e0bcaa294de571509a199b67d",
			"381689deae5b98ea11cca3148e7e8c87036b6861369898a394063bfd4d36b030",
			"7eea29390c8d2e692d9585d45a8e129032daf6b15698ace4a43b427c7dbd8dcd",
			"9eb154fec35496caadc5385ba8401bd79298fcd57c27398e2265cfd29c5ea0c5",
		},
		{
			"fixed/over-sharded", 25, 64, 0,
			"df821586e52705b9f47058a0ee8ec43c347a7bbb6da2fb07a08d299335b27f98",
			"52fbd3c970d5adb941286a506c8cbf67df54f1d8da419eb04571d34fb90ca643",
			"fa3b62312b2e11e1efe3731f1c61a6f67ca0735d53c3c8325f074bc6b7f59b76",
			"97e8a92f17d4c732c713babe481ced9836bb8ec71a175bf2d6035519e354bc42",
		},
		{
			"tolerance/early-stop/1", 40, 1, 100,
			"8d872214153a902fd4c0ed849082a58b9993dfc7ae311a2ef9d9e137fbfee5df",
			"573b0073f8d7da8fd39695f032d1ff51c957eb4becb7c347cd0fe767302fbbe6",
			"317bda549b9beada872c56b65a684f6c2a0faa39161e0d64556551a4739cfb80",
			"d88a259d60503def73da2ab9185a8b770471fefb95060d8d21a470ab0c4ff690",
		},
		{
			"tolerance/early-stop/3", 40, 3, 100,
			"8d872214153a902fd4c0ed849082a58b9993dfc7ae311a2ef9d9e137fbfee5df",
			"0b0f97a3c5004e3c45d29219578be9aeb74448ecf836ebaef2575858f04744c1",
			"317bda549b9beada872c56b65a684f6c2a0faa39161e0d64556551a4739cfb80",
			"07968a2e0c7c5081192ea37c90cdfa6d44adda204f33c42830b990e2ad63975e",
		},
		{
			"tolerance/exhausted/1", 40, 1, 1e-9,
			"347dd7e932a50914684bfcd4666a632abaa399335500377b0f0839abc7ee67fb",
			"2a1346adb7c4aa0a11fd1a16043e0aa2850248e349e895bb7103eb0492446088",
			"ea922473b617d95a81b7c72268eb2dd07c0c9755cb29c20d6b692d7710719103",
			"a4736da3c0a1bdf0ee50a77205a5a8af1835185ebe4d1a87b176d20b75b39228",
		},
		{
			"tolerance/exhausted/3", 40, 3, 1e-9,
			"347dd7e932a50914684bfcd4666a632abaa399335500377b0f0839abc7ee67fb",
			"54bdccb617d7dc3c4e85b6548e9396db68b71ca809d6b951d45189a9450fea77",
			"ea922473b617d95a81b7c72268eb2dd07c0c9755cb29c20d6b692d7710719103",
			"dd36f2a1a5ea2fd12a718417d36dfe5e012ec549970e6e7ed176a0fba80ef144",
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
	// block a worker sends now. The lease is the cells of permutations
	// [3,11) of a 25-permutation plan; a plan's first permutations do not
	// depend on its budget, so they are the union of shards 1 and 2 of an
	// 11-permutation plan cut into three ([0,3), [3,7), [7,11)).
	opts.MonteCarloSamples = 11
	v := NewValuation(tr, opts)
	if _, err := v.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lo, hi := v.plan.(*shapley.MonteCarloPlan).ShardSlice(1); lo != 3 || hi != 7 {
		t.Fatalf("shard 1 is [%d,%d), want [3,7)", lo, hi)
	}
	lease := &CellBatch{N: tr.NumClients()}
	for shard := 1; shard <= 2; shard++ {
		cells, err := v.ShardCells(context.Background(), shard)
		if err != nil {
			t.Fatal(err)
		}
		lease.Cells = append(lease.Cells, cells.Cells...)
	}
	lease.Stamp()
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
