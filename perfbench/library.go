package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"comfedsv"
	"comfedsv/internal/dataset"
	"comfedsv/internal/persist"
	"comfedsv/internal/rng"
)

// The library workloads cycle their jobs over seedCycle job seeds per
// problem. The count is odd so that a traced run, which traces every other
// job, traces every seed equally often.
const seedCycle = 5

// jobSeeds derives n distinct job seeds from the workload seed.
func jobSeeds(seed int64, n int) []int64 {
	g := rng.New(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Int63()%1_000_000 + 1
	}
	return out
}

func toClient(d *dataset.Dataset) comfedsv.Client { return comfedsv.Client{X: d.X, Y: d.Y} }

// synthFederation draws n clients of the non-IID synthetic(1,1) task with
// points examples each; the test set takes testEach more from every
// client, so it covers every client's distribution.
func synthFederation(seed int64, n, points, testEach, dim int) ([]comfedsv.Client, comfedsv.Client) {
	cfg := dataset.DefaultSyntheticConfig(1, 1, seed)
	cfg.Dim = dim
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = points + testEach
	}
	var clients []comfedsv.Client
	var test []*dataset.Dataset
	for _, d := range dataset.GenerateSynthetic(cfg, sizes) {
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = i
		}
		test = append(test, d.Subset(idx[:testEach]))
		clients = append(clients, toClient(d.Subset(idx[testEach:])))
	}
	return clients, toClient(dataset.Concat(test...))
}

// imageFederation draws MNIST-like 8×8 images and splits them IID over n
// clients of points examples each, plus a test set of testPoints.
func imageFederation(seed int64, n, points, testPoints int) ([]comfedsv.Client, comfedsv.Client) {
	all := dataset.GenerateImages(dataset.MNISTLikeConfig(seed), n*points+testPoints)
	idx := make([]int, all.Len())
	for i := range idx {
		idx[i] = i
	}
	var clients []comfedsv.Client
	for _, d := range dataset.PartitionIID(all.Subset(idx[testPoints:]), n, rng.New(seed+1)) {
		clients = append(clients, toClient(d))
	}
	return clients, toClient(all.Subset(idx[:testPoints]))
}

// staged is one traced valuation's outcome.
type staged struct {
	rep   *comfedsv.Report
	stats comfedsv.EvalStats
	waves int
}

// runStaged drives a Valuation stage by stage exactly as Valuation.Run
// does, recording a span around each stage call under root. The FedSV
// span comes from Options.OnStageTime, nested in the Prepare span.
func runStaged(ctx context.Context, t *tracer, job, root int, tr *comfedsv.TrainedRun, opts comfedsv.Options) (staged, error) {
	prep := -1
	opts.OnStageTime = func(st comfedsv.StageTiming) {
		if st.Stage == comfedsv.StageFedSV {
			end := time.Now()
			t.add(job, prep, "shapley.fedsv", end.Add(-st.Duration), end)
		}
	}
	v := comfedsv.NewValuation(tr, opts)
	prep = t.open(job, root, "shapley.plan", time.Now())
	pending, err := v.Prepare(ctx)
	t.close(prep, time.Now())
	if err != nil {
		return staged{}, err
	}
	next, waves := 0, 0
	for pending > 0 {
		for i := 0; i < pending; i++ {
			start := time.Now()
			err := v.ObserveShard(ctx, next+i)
			t.add(job, root, "shapley.observe", start, time.Now())
			if err != nil {
				return staged{}, err
			}
		}
		next += pending
		start := time.Now()
		pending, err = v.Complete(ctx)
		t.add(job, root, "mc.complete", start, time.Now())
		if err != nil {
			return staged{}, err
		}
		waves++
	}
	start := time.Now()
	rep, err := v.Extract(ctx)
	t.add(job, root, "shapley.extract", start, time.Now())
	if err != nil {
		return staged{}, err
	}
	return staged{rep: rep, stats: v.Stats(), waves: waves}, nil
}

// layerCounts accumulates the per-job counts of traced library jobs.
type layerCounts struct {
	jobs, waves, hits, misses int
}

func (c *layerCounts) add(s staged) {
	c.jobs++
	c.waves += s.waves
	c.hits += s.stats.Hits
	c.misses += s.stats.Misses
}

// into writes the counts, and the seconds per paid utility evaluation
// spent in FedSV and observation, into the per-layer metrics.
func (c *layerCounts) into(layer map[string]float64, t *tracer) {
	if c.jobs == 0 {
		return
	}
	jobs := float64(c.jobs)
	layer["mc.waves_per_job"] = float64(c.waves) / jobs
	layer["utility.evals_per_job"] = float64(c.misses) / jobs
	layer["utility.hits_per_job"] = float64(c.hits) / jobs
	if c.hits+c.misses > 0 {
		layer["utility.hit_ratio"] = float64(c.hits) / float64(c.hits+c.misses)
	}
	if c.misses > 0 {
		self, _, _ := layerTimes(t.spans, "job")
		layer["utility.eval_s"] = (self["shapley.fedsv"] + self["shapley.observe"]).Seconds() / float64(c.misses)
	}
}

func sameReport(rep *comfedsv.Report, want []byte) error {
	got, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from the reference")
	}
	return nil
}

// warmMC values shared 24-client runs with fixed-budget Monte-Carlo jobs
// whose every utility cell is already cached: ALS completion dominates.
// How long ALS runs differs a lot between problems (it converges early on
// some), so the jobs cycle over warmRuns shared runs × seedCycle job seeds
// rather than over one problem. Set-up rebuilds every shared run from its
// stored trace and cell sidecar.
func warmMC(e *env) (*run, error) {
	const (
		warmRuns = 7
		clients  = 24
		setups   = 3
	)
	// A high learning rate gives utilities large enough that ALS runs
	// most of its iteration budget on nearly every problem, which keeps
	// the work per job, and so the median job, steady.
	opts := comfedsv.DefaultOptions(10)
	opts.Rounds = 30
	opts.ClientsPerRound = 3
	opts.LearningRate = 3
	opts.Rank = 5
	opts.MonteCarloSamples = 60
	opts.Parallelism = 1
	store, err := persist.NewRunStore(filepath.Join(e.dir, "runs"))
	if err != nil {
		return nil, err
	}

	// Train each shared run, then value every job seed once on a fresh
	// evaluator: that cold report is the seed's reference, and its cells
	// go to the sidecar the set-up preloads.
	type problem struct {
		run  int
		seed int64
		ref  []byte
	}
	var problems []problem
	ids := make([]string, warmRuns)
	r := &run{layer: map[string]float64{}}
	for k, dataSeed := range jobSeeds(e.seed, warmRuns) {
		fed, test := synthFederation(dataSeed, clients, 40, 4, 20)
		o := opts
		o.Seed = dataSeed
		trained, err := comfedsv.TrainCtx(e.ctx, fed, test, o)
		if err != nil {
			return nil, fmt.Errorf("training a shared run: %w", err)
		}
		ids[k] = fmt.Sprintf("warm-mc-%d", k)
		if err := store.SaveRun(ids[k], trained.Run()); err != nil {
			return nil, err
		}
		// References are outside the window, so they use every CPU; the
		// values do not depend on Parallelism.
		o.Parallelism = runtime.NumCPU()
		for _, s := range jobSeeds(dataSeed, seedCycle) {
			cold := comfedsv.NewTrainedRun(trained.Run())
			o.Seed = s
			rep, _, err := comfedsv.ValueRunCtx(e.ctx, cold, o)
			if err != nil {
				return nil, fmt.Errorf("cold reference: %w", err)
			}
			ref, err := json.Marshal(rep)
			if err != nil {
				return nil, err
			}
			problems = append(problems, problem{run: k, seed: s, ref: ref})
			r.cells += float64(rep.UtilityCalls) / float64(warmRuns*seedCycle)
			if err := store.AppendCells(ids[k], cold.ExportNewCells(), "reference", nil); err != nil {
				return nil, err
			}
		}
	}

	trs := make([]*comfedsv.TrainedRun, warmRuns)
	var loads, preloads []time.Duration
	for i := 0; i < setups; i++ {
		// Start every set-up from a collected heap, without the previous
		// repetition's runs, so its timing and the peak memory it reaches
		// do not depend on when the collector last ran.
		clear(trs)
		runtime.GC()
		var load, preload time.Duration
		preloaded := 0
		for k, id := range ids {
			t0 := time.Now()
			fr, err := store.LoadRun(id)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			trs[k] = comfedsv.NewTrainedRun(fr)
			batches, err := store.ReadCells(id)
			if err != nil {
				return nil, err
			}
			for _, b := range batches {
				n, err := trs[k].PreloadCells(b)
				if err != nil {
					return nil, err
				}
				preloaded += n
			}
			load += t1.Sub(t0)
			preload += time.Since(t1)
		}
		loads = append(loads, load)
		preloads = append(preloads, preload)
		r.setups = append(r.setups, load+preload)
		r.layer["persist.cells_preloaded"] = float64(preloaded)
	}
	r.layer["persist.load_run_s"] = medianSeconds(loads)
	r.layer["persist.preload_s"] = medianSeconds(preloads)

	var counts layerCounts
	job := func(i int, traced bool) error {
		p := problems[i%len(problems)]
		o := opts
		o.Seed = p.seed
		var rep *comfedsv.Report
		var stats comfedsv.EvalStats
		if traced {
			root := e.tr.open(i, -1, "job", time.Now())
			s, err := runStaged(e.ctx, e.tr, i, root, trs[p.run], o)
			e.tr.close(root, time.Now())
			if err != nil {
				return err
			}
			counts.add(s)
			rep, stats = s.rep, s.stats
		} else {
			var err error
			if rep, stats, err = comfedsv.ValueRunCtx(e.ctx, trs[p.run], o); err != nil {
				return err
			}
		}
		if stats.Misses != 0 {
			return fmt.Errorf("warm job paid %d utility evaluations", stats.Misses)
		}
		return sameReport(rep, p.ref)
	}
	// Warm-up: one untimed job per shared run.
	for k := 0; k < warmRuns; k++ {
		r.tally.record(job(k*seedCycle, false))
	}
	timedLoop(e, r, job)
	if e.traced {
		counts.into(r.layer, e.tr)
	}
	return r, nil
}

// timedLoop runs job in a closed loop over the window, tracing every
// other job in a traced run, and books latencies into r.
func timedLoop(e *env, r *run, job func(i int, traced bool) error) {
	logReady()
	r.win.open()
	lats, end := closedLoop(e.window, func(i int) error {
		return job(i, e.traced && i%2 == 1)
	}, r)
	r.win.closeAt(end)
	r.lats, r.tracedLats = splitLatencies(lats, e.traced)
}

// coldMLP runs the inline exact pipeline — FedAvg training of an MLP on 8
// image clients, FedSV, full observation, completion and extraction — on
// a fresh evaluator each time: utility evaluation and training dominate.
func coldMLP(e *env) (*run, error) {
	const clients = 8
	fed, test := imageFederation(e.seed, clients, 40, 100)
	opts := comfedsv.DefaultOptions(10)
	opts.Model = comfedsv.MLP
	opts.HiddenUnits = 16
	opts.Rounds = 12
	opts.ClientsPerRound = 4
	opts.Rank = 5
	opts.Parallelism = 1
	seeds := jobSeeds(e.seed, seedCycle)
	r := &run{layer: map[string]float64{}}

	// The first report of each seed is its reference. It must satisfy
	// FedSV efficiency: the values sum to the utility of every round's
	// full selection, recomputed here from the trace.
	refs := make([][]byte, len(seeds))
	for k, s := range seeds {
		o := opts
		o.Seed = s
		start := time.Now()
		rep, err := comfedsv.ValueCtx(e.ctx, fed, test, o)
		if err != nil {
			return nil, fmt.Errorf("reference job: %w", err)
		}
		r.setups = append(r.setups, time.Since(start))
		if refs[k], err = json.Marshal(rep); err != nil {
			return nil, err
		}
		r.cells += float64(rep.UtilityCalls) / float64(len(seeds))
		r.tally.record(checkEfficiency(e.ctx, fed, test, o, rep))
	}

	var counts layerCounts
	job := func(i int, traced bool) error {
		k := i % len(seeds)
		o := opts
		o.Seed = seeds[k]
		var rep *comfedsv.Report
		if traced {
			root := e.tr.open(i, -1, "job", time.Now())
			start := time.Now()
			trun, err := comfedsv.TrainCtx(e.ctx, fed, test, o)
			e.tr.add(i, root, "fl.train", start, time.Now())
			if err != nil {
				e.tr.close(root, time.Now())
				return err
			}
			s, err := runStaged(e.ctx, e.tr, i, root, trun, o)
			e.tr.close(root, time.Now())
			if err != nil {
				return err
			}
			counts.add(s)
			rep = s.rep
		} else {
			var err error
			if rep, err = comfedsv.ValueCtx(e.ctx, fed, test, o); err != nil {
				return err
			}
		}
		return sameReport(rep, refs[k])
	}
	timedLoop(e, r, job)
	if e.traced {
		counts.into(r.layer, e.tr)
	}
	return r, nil
}

// checkEfficiency verifies Σᵢ FedSVᵢ = Σₜ Uₜ(Iₜ) for a report, with the
// utilities recomputed directly from a retrained trace.
func checkEfficiency(ctx context.Context, fed []comfedsv.Client, test comfedsv.Client, o comfedsv.Options, rep *comfedsv.Report) error {
	tr, err := comfedsv.TrainCtx(ctx, fed, test, o)
	if err != nil {
		return err
	}
	fr := tr.Run()
	var want, got float64
	for t, rd := range fr.Rounds {
		want += fr.Utility(t, rd.Selected)
	}
	for _, v := range rep.FedSV {
		got += v
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("FedSV efficiency violated: sum %v, grand-coalition utility %v", got, want)
	}
	return nil
}
