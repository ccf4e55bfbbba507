package comfedsv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"comfedsv/internal/mc"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// payerOptions returns the small Monte-Carlo, exact and multi-wave
// tolerance settings the payer tests run.
func payerOptions(seed int64) map[string]Options {
	base := DefaultOptions(10)
	base.Rounds = 5
	base.ClientsPerRound = 2
	base.LearningRate = 0.1
	base.Seed = seed
	fixed, exact, tolerance := base, base, base
	fixed.MonteCarloSamples = 25
	tolerance.MonteCarloSamples = 40
	tolerance.Tolerance = 1e-9 // never converges: every wave runs
	return map[string]Options{"fixed": fixed, "exact": exact, "tolerance": tolerance}
}

// widePayerOptions returns fixed-budget and multi-wave tolerance settings
// for wideClients(22): the warm-up round selects all 22 clients, so FedSV
// samples and wave 0 cannot hold every cell a later wave reaches.
func widePayerOptions() map[string]Options {
	base := DefaultOptions(2)
	base.Rounds = 3
	base.ClientsPerRound = 2
	base.Seed = 29
	base.MonteCarloSamples = 24
	tolerance := base
	tolerance.Tolerance = 1e-9 // never converges: waves of 16 and 24 run
	return map[string]Options{"wide/fixed": base, "wide/tolerance": tolerance}
}

// payerCases pairs every payer setting with its federation: six clients
// for payerOptions(seed), wideClients(22) for widePayerOptions.
func payerCases(t *testing.T, seed int64) map[string]payerCase {
	clients, test := makeClients(t, 6, 20, 40, seed)
	wide, wideTest := wideClients(22)
	cases := make(map[string]payerCase)
	for name, opts := range payerOptions(seed) {
		cases[name] = payerCase{clients, test, opts}
	}
	for name, opts := range widePayerOptions() {
		cases[name] = payerCase{wide, wideTest, opts}
	}
	return cases
}

type payerCase struct {
	clients []Client
	test    Client
	opts    Options
}

// cellSet is the (round, coalition) identity of a batch's cells.
func cellSet(b *CellBatch) []string {
	out := make([]string, len(b.Cells))
	for i, c := range b.Cells {
		out[i] = fmt.Sprintf("%d/%d/%s", c.Round, c.Mask, c.Key)
	}
	return out
}

// driven is one staged valuation's outcome: the JSON report, every
// shard's digest and lease cells in scheduling order, and the index of
// each wave's first shard.
type driven struct {
	report  []byte
	digests []string
	leases  [][]string
	waves   []int
}

// driveValuation runs a staged Valuation of tr with every wave's shards
// executed in order — "serial", "reverse", "concurrent", or "remote": each
// shard's lease is paid by worker and preloaded into tr before the shard
// runs.
func driveValuation(t *testing.T, tr *TrainedRun, opts Options, order string, worker *TrainedRun) driven {
	t.Helper()
	ctx := context.Background()
	v := NewValuation(tr, opts)
	pending, err := v.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var d driven
	for next := 0; pending > 0; {
		d.waves = append(d.waves, next)
		errs := make([]error, pending)
		observe := func(i int) { errs[i] = v.ObserveShard(ctx, next+i) }
		var wg sync.WaitGroup
		for i := range pending {
			switch order {
			case "reverse":
				observe(pending - 1 - i)
			case "concurrent":
				wg.Add(1)
				go func() {
					defer wg.Done()
					observe(i)
				}()
			case "remote":
				lease, err := v.ShardCells(ctx, next+i)
				if err != nil {
					t.Fatal(err)
				}
				paid, err := worker.PayCells(ctx, lease, 2)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tr.PreloadCells(paid); err != nil {
					t.Fatal(err)
				}
				observe(i)
			default:
				observe(i)
			}
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", next+i, err)
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
	if d.report, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	for shard := range v.Shards() {
		lease, err := v.ShardCells(ctx, shard)
		if err != nil {
			t.Fatal(err)
		}
		paid, err := worker.PayCells(ctx, lease, 1)
		if err != nil {
			t.Fatal(err)
		}
		if paid.Digest != v.ShardDigest(shard) {
			t.Fatalf("shard %d digest %s, a worker's batch for its lease carries %s", shard, v.ShardDigest(shard), paid.Digest)
		}
		d.digests = append(d.digests, v.ShardDigest(shard))
		d.leases = append(d.leases, cellSet(lease))
	}
	return d
}

// TestPrepareRequestsNoCells pins the one-payer rule: Prepare requests no
// utility cell from the run's evaluator, for exact, fixed-budget and
// tolerance valuations alike, and for a 22-client run whose warm-up round
// puts FedSV on its sampled estimator. Wave 0's shards hold every FedSV
// cell, and UtilityCalls equals the bill of FedSV followed by the plan on
// a fresh evaluator, the order the pipeline once paid them in.
func TestPrepareRequestsNoCells(t *testing.T) {
	ctx := context.Background()
	for name, c := range payerCases(t, 331) {
		opts := c.opts
		opts.Shards = 3
		tr, err := TrainCtx(ctx, c.clients, c.test, opts)
		if err != nil {
			t.Fatal(err)
		}
		v := NewValuation(tr, opts)
		shards, err := v.Prepare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st := tr.CacheStats(); st != (EvalStats{}) {
			t.Fatalf("%s: Prepare requested cells: %+v, want none", name, st)
		}
		wave0 := make(map[string]bool)
		for shard := range shards {
			lease, err := v.ShardCells(ctx, shard)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cellSet(lease) {
				if wave0[c] {
					t.Fatalf("%s: cell %s is in two shards of wave 0", name, c)
				}
				wave0[c] = true
			}
		}
		fedsv := shapley.NewFedSV(tr.Run(), opts.Seed+2)
		fedsvCells := utility.NewCellBatch(tr.NumClients(), fedsv.Cells(), make([]float64, len(fedsv.Cells())))
		for _, c := range cellSet(fedsvCells) {
			if !wave0[c] {
				t.Fatalf("%s: FedSV cell %s is in no shard of wave 0", name, c)
			}
		}
		if err := v.ObserveShard(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if tr.CacheStats().Misses == 0 {
			t.Fatalf("%s: the first shard paid no cell", name)
		}

		rep, _, err := ValueRunCtx(ctx, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		e := utility.NewEvaluator(tr.Run())
		if _, err := shapley.FedSVAutoCtx(ctx, e, opts.Seed+2, 1); err != nil {
			t.Fatal(err)
		}
		budget, _ := valuationBudget(opts)
		if budget > 0 {
			_, err = shapley.MonteCarloCtx(ctx, e, shapley.MonteCarloConfig{
				Samples: budget, Completion: mc.DefaultConfig(opts.Rank), Seed: opts.Seed + 1, Tolerance: opts.Tolerance,
			})
		} else {
			_, err = shapley.ComFedSVExactCtx(ctx, e, mc.DefaultConfig(opts.Rank))
		}
		if err != nil {
			t.Fatal(err)
		}
		if rep.UtilityCalls != e.Calls() {
			t.Fatalf("%s: UtilityCalls %d, want the FedSV-then-plan bill %d", name, rep.UtilityCalls, e.Calls())
		}
	}
}

// TestValuationShardOrderInvariant pins the Valuation's sharding: for the
// exact, fixed-budget and multi-wave tolerance pipelines over six clients,
// and the fixed-budget and tolerance pipelines over 22, cut into 1, 2, T,
// 8 and 1000 shards (clamped to one per cell) and run serially, in
// reverse, concurrently (meaningful under -race) or remotely — each lease
// paid by a separate TrainedRun and preloaded — the report and the shard
// digests are those of the serial run (the report that of one shard), no
// cell is in two shards of the job, across every wave, the shards' cells
// add up to UtilityCalls, every shard's digest is the one a worker's
// batch for its lease carries, and a remote run pays no cell on the
// coordinator. At 22 clients the tolerance job's later waves still
// schedule shards, of new cells only.
func TestValuationShardOrderInvariant(t *testing.T) {
	for name, c := range payerCases(t, 333) {
		opts := c.opts
		tr, err := TrainCtx(context.Background(), c.clients, c.test, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Shards = 1
		want := driveValuation(t, NewTrainedRun(tr.Run()), opts, "serial", tr).report
		var rep Report
		if err := json.Unmarshal(want, &rep); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, opts.Rounds, 8, 1000} {
			opts.Shards = shards
			var serial []string
			for _, order := range []string{"serial", "reverse", "concurrent", "remote"} {
				local := NewTrainedRun(tr.Run())
				got := driveValuation(t, local, opts, order, NewTrainedRun(tr.Run()))
				label := fmt.Sprintf("%s, %d shards, %s", name, shards, order)
				if !bytes.Equal(got.report, want) {
					t.Fatalf("%s: report differs from one shard:\n%s\nvs\n%s", label, got.report, want)
				}
				if order == "serial" {
					serial = got.digests
				} else if !slices.Equal(got.digests, serial) {
					t.Fatalf("%s: shard digests %q, serial %q", label, got.digests, serial)
				}
				if order == "remote" && local.CacheStats().Misses != 0 {
					t.Fatalf("%s: the coordinator paid %d cells of leased shards", label, local.CacheStats().Misses)
				}
				if name == "wide/tolerance" && len(got.waves) < 2 {
					t.Fatalf("%s: no shard after wave 0", label)
				}
				seen := make(map[string]bool)
				for w, lo := range got.waves {
					hi := len(got.leases)
					if w+1 < len(got.waves) {
						hi = got.waves[w+1]
					}
					cells := 0
					for _, lease := range got.leases[lo:hi] {
						cells += len(lease)
						for _, c := range lease {
							if seen[c] {
								t.Fatalf("%s: cell %s is in two shards of the job", label, c)
							}
							seen[c] = true
						}
					}
					if hi-lo != max(1, min(shards, cells)) {
						t.Fatalf("%s: wave %d has %d shards over %d cells, want Shards clamped to [1, cells]", label, w, hi-lo, cells)
					}
				}
				if len(seen) != rep.UtilityCalls {
					t.Fatalf("%s: the shards lease %d cells, UtilityCalls is %d", label, len(seen), rep.UtilityCalls)
				}
			}
		}
	}
}

// TestLaterWavesLeaseNoPaidCell pins where a tolerance job's cells are
// listed when no round selects more than 20 clients: wave 0 holds every
// subset of every round's selection (exact FedSV's cells), so the later
// waves list nothing new and schedule no shard. Eight clients, ten rounds
// of three and a budget of 48 permutations in three waves lease 255 + 9·7
// = 318 cells in all, once each; a plan that re-listed paid cells leased
// them again in waves 1 and 2.
func TestLaterWavesLeaseNoPaidCell(t *testing.T) {
	clients, test := makeClients(t, 8, 20, 40, 339)
	opts := DefaultOptions(10)
	opts.Rounds = 10
	opts.ClientsPerRound = 3
	opts.LearningRate = 0.1
	opts.Seed = 339
	opts.MonteCarloSamples = 48
	opts.Tolerance = 1e-9 // never converges: every wave runs
	opts.Shards = 2
	tr, err := TrainCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := driveValuation(t, tr, opts, "serial", NewTrainedRun(tr.Run()))
	var rep Report
	if err := json.Unmarshal(got.report, &rep); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, lease := range got.leases {
		cells += len(lease)
	}
	if len(got.waves) != 1 || len(got.leases) != 2 || cells != 318 || rep.UtilityCalls != 318 {
		t.Fatalf("%d waves of shards, %d shards, %d leased cells, UtilityCalls %d; want 1, 2, 318, 318", len(got.waves), len(got.leases), cells, rep.UtilityCalls)
	}
	if rep.ObservationsUsed != 48 {
		t.Fatalf("ObservationsUsed %d, want the whole budget of 48", rep.ObservationsUsed)
	}
}

// TestMonteCarloShardClamp pins the shard-count clamp: Shards 0 means
// one shard, and more shards than a wave has cells collapse to one shard
// per cell; both reports match the one-shard run.
func TestMonteCarloShardClamp(t *testing.T) {
	clients, test := makeClients(t, 6, 20, 40, 503)
	opts := payerOptions(503)["fixed"]
	opts.MonteCarloSamples = 3
	tr, err := TrainCtx(context.Background(), clients, test, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 1
	want := driveValuation(t, NewTrainedRun(tr.Run()), opts, "serial", tr).report
	opts.Shards = 0
	got := driveValuation(t, NewTrainedRun(tr.Run()), opts, "serial", tr)
	if len(got.digests) != 1 || !bytes.Equal(got.report, want) {
		t.Fatalf("Shards 0: %d shards, want 1, and the one-shard report", len(got.digests))
	}
	opts.Shards = 1 << 20
	got = driveValuation(t, NewTrainedRun(tr.Run()), opts, "serial", tr)
	cells := 0
	for _, lease := range got.leases {
		cells += len(lease)
	}
	if len(got.digests) != cells || !bytes.Equal(got.report, want) {
		t.Fatalf("Shards %d: %d shards over %d cells, want one per cell, and the one-shard report", opts.Shards, len(got.digests), cells)
	}
}

// TestValuationStageOrderErrors pins the Valuation's stage contract:
// completing a wave with an unobserved shard, observing a shard outside
// the current wave, leasing an unscheduled shard, extracting before the
// last Complete and completing a finished plan are loud errors.
func TestValuationStageOrderErrors(t *testing.T) {
	ctx := context.Background()
	clients, test := makeClients(t, 6, 20, 40, 502)
	for name, opts := range payerOptions(502) {
		opts.Shards = 2
		tr, err := TrainCtx(ctx, clients, test, opts)
		if err != nil {
			t.Fatal(err)
		}
		v := NewValuation(tr, opts)
		pending, err := v.Prepare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ObserveShard(ctx, pending); err == nil {
			t.Fatalf("%s: ObserveShard past the wave must fail", name)
		}
		if _, err := v.ShardCells(ctx, pending); err == nil {
			t.Fatalf("%s: ShardCells of an unscheduled shard must fail", name)
		}
		if err := v.ObserveShard(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if v.ShardDigest(1) != "" {
			t.Fatalf("%s: an unobserved shard has a digest", name)
		}
		if _, err := v.Complete(ctx); err == nil {
			t.Fatalf("%s: Complete with an unobserved shard must fail", name)
		}
		if _, err := v.Extract(ctx); err == nil {
			t.Fatalf("%s: Extract before Complete must fail", name)
		}
		next := 0
		for pending > 0 {
			for i := range pending {
				if err := v.ObserveShard(ctx, next+i); err != nil {
					t.Fatal(err)
				}
			}
			if next > 0 {
				if err := v.ObserveShard(ctx, 0); err == nil {
					t.Fatalf("%s: ObserveShard of an earlier wave must fail", name)
				}
			}
			next += pending
			if pending, err = v.Complete(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := v.Complete(ctx); err == nil {
			t.Fatalf("%s: Complete after the plan finished must fail", name)
		}
		if _, err := v.Extract(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
