package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"comfedsv"
)

// TestConcurrentCreateRunTrainsExactlyOnce hammers the registry's
// in-flight dedup (run with -race): many goroutines registering the same
// spec concurrently must converge on one run ID and exactly one training.
func TestConcurrentCreateRunTrainsExactlyOnce(t *testing.T) {
	var trainings atomic.Int64
	m := newManager(t, Config{
		Workers: 2,
		train: func(ctx context.Context, clients []comfedsv.Client, test comfedsv.Client, opts comfedsv.Options) (*comfedsv.TrainedRun, error) {
			trainings.Add(1)
			return comfedsv.TrainCtx(ctx, clients, test, opts)
		},
	})

	const goroutines = 16
	ids := make([]string, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait() // release all registrations at once
			st, _, err := m.CreateRun(tinySpec(21))
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			ids[g] = st.ID
		}(g)
	}
	start.Done()
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if ids[g] != ids[0] {
			t.Fatalf("goroutine %d got run %q, goroutine 0 got %q", g, ids[g], ids[0])
		}
	}
	if got := waitRunTerminal(t, m, ids[0]); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}
	if n := trainings.Load(); n != 1 {
		t.Fatalf("spec trained %d times, want exactly once", n)
	}
}

// TestConcurrentJobsShareOneRun hammers one shared run and its evaluator
// from many concurrent real valuations (run with -race): no torn cache
// state, every report byte-identical, and the whole batch pays the
// utility-call bill once.
func TestConcurrentJobsShareOneRun(t *testing.T) {
	m := newManager(t, Config{Workers: 4})
	st, _, err := m.CreateRun(tinySpec(23))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}

	opts := tinyRequest(23).Options
	opts.Parallelism = 2 // fan out inside each job too
	const jobs = 8
	ids := make([]string, jobs)
	for i := range ids {
		id, err := m.Submit(Request{RunID: st.ID, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var first []byte
	totalMisses := 0
	for i, id := range ids {
		if s := waitTerminal(t, m, id); s.State != StateDone {
			t.Fatalf("job %d finished %s (%s)", i, s.State, s.Error)
		}
		rep, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("job %d report differs from job 0:\n%s\nvs\n%s", i, body, first)
		}
		s, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.CacheStats == nil {
			t.Fatalf("job %d missing cache stats", i)
		}
		if s.CacheStats.Hits+s.CacheStats.Misses != rep.UtilityCalls {
			t.Fatalf("job %d ledger %+v does not sum to its %d utility calls", i, s.CacheStats, rep.UtilityCalls)
		}
		totalMisses += s.CacheStats.Misses
	}
	// The shared cache means the batch's distinct evaluations equal one
	// job's, no matter how the concurrent first requests interleaved.
	var one comfedsv.Report
	if err := json.Unmarshal(first, &one); err != nil {
		t.Fatal(err)
	}
	if totalMisses != one.UtilityCalls {
		t.Fatalf("batch paid %d evaluations, want exactly one job's bill of %d", totalMisses, one.UtilityCalls)
	}
	rs, err := m.RunStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheMisses != one.UtilityCalls {
		t.Fatalf("run counter says %d misses, want %d", rs.CacheMisses, one.UtilityCalls)
	}
}

// TestConcurrentShardedJobsShareOneRun is the -race hammer for the staged
// scheduler's hottest interleaving: several Monte-Carlo jobs, each split
// into concurrent observation shards, all hammering ONE shared run's
// evaluator at once. Every report must be byte-identical to the direct
// inline call, and the shard fan-out must show up in the task counters.
func TestConcurrentShardedJobsShareOneRun(t *testing.T) {
	m := newManager(t, Config{Workers: 4})
	spec := tinySpec(27)
	st, _, err := m.CreateRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s)", got.State, got.Error)
	}

	opts := tinyRequest(27).Options
	opts.MonteCarloSamples = 40
	opts.Shards = 4
	opts.Parallelism = 2
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		id, err := m.Submit(Request{RunID: st.ID, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	req := tinyRequest(27)
	req.Options.MonteCarloSamples = 40
	want, err := comfedsv.Value(req.Clients, req.Test, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	wantBody, _ := json.Marshal(want)
	for i, id := range ids {
		if s := waitTerminal(t, m, id); s.State != StateDone {
			t.Fatalf("job %d finished %s (%s)", i, s.State, s.Error)
		}
		rep, err := m.Report(id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("job %d sharded report differs from direct call:\n%s\nvs\n%s", i, body, wantBody)
		}
		s, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards != 4 || s.ShardsDone != 4 {
			t.Fatalf("job %d shard accounting %d/%d, want 4/4", i, s.ShardsDone, s.Shards)
		}
		if s.CacheStats == nil || s.CacheStats.Hits+s.CacheStats.Misses != rep.UtilityCalls {
			t.Fatalf("job %d ledger %+v does not sum to its %d utility calls", i, s.CacheStats, rep.UtilityCalls)
		}
	}
	if got := m.met.shardTasks.Value(); got != jobs*4 {
		t.Fatalf("shard tasks executed = %d, want %d", got, jobs*4)
	}
}

// TestSnapshotReadsRaceFreeUnderLoad is the targeted torn-read check for
// the Manager's snapshot paths (run with -race): Status, List, Counts,
// Report, RunStatus, and Runs are hammered while jobs run, stream
// progress updates, finish, and get cancelled — any unsynchronized read
// of job progress/state or run counters shows up as a race report.
func TestSnapshotReadsRaceFreeUnderLoad(t *testing.T) {
	m := newManager(t, Config{Workers: 4})
	st, _, err := m.CreateRun(tinySpec(25))
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 6
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		var id string
		var err error
		if i%2 == 0 {
			id, err = m.Submit(Request{RunID: st.ID, Options: tinyRequest(25).Options})
		} else {
			id, err = m.Submit(tinyRequest(25))
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.List()
				m.Counts()
				m.Runs()
				m.RunCounts()
				for _, id := range ids {
					m.Status(id)
					m.Report(id)
				}
				m.RunStatus(st.ID)
			}
		}()
	}
	// One goroutine cancels the last job mid-flight to race the terminal
	// transition against the snapshot readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Cancel(ids[len(ids)-1])
	}()

	for _, id := range ids[:len(ids)-1] {
		if s := waitTerminal(t, m, id); s.State != StateDone {
			t.Fatalf("job finished %s (%s)", s.State, s.Error)
		}
	}
	waitTerminal(t, m, ids[len(ids)-1])
	close(stop)
	wg.Wait()
}

// TestMetricsCountersMonotoneUnderLoad scrapes WriteMetrics in a loop
// (run with -race) while inline jobs run and warm and fresh runs are
// created, valued against and deleted. Every _total sample must be
// non-decreasing from one scrape to the next; only the per-run series of
// a deleted run may vanish or drop.
func TestMetricsCountersMonotoneUnderLoad(t *testing.T) {
	jobDir, runDir := t.TempDir(), t.TempDir()
	warmSeeds, freshSeeds := []int64{75, 76}, []int64{77, 78}
	jobs1, runs1 := cellStores(t, jobDir, runDir)
	m1 := newManager(t, Config{Workers: 2, Store: jobs1, RunStore: runs1})
	for _, seed := range warmSeeds {
		runCellJob(t, m1, jobDir, tinySpec(seed), cellRequest(seed, 2, 2))
	}
	shutdown(t, m1)

	jobs2, runs2 := cellStores(t, jobDir, runDir)
	m := newManager(t, Config{Workers: 2, Store: jobs2, RunStore: runs2})
	var mu sync.Mutex
	deleted := make(map[string]bool) // run_id label pairs of deleted runs
	stop := make(chan struct{})
	scrapes := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := make(map[string]float64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := m.WriteMetrics(&b); err != nil {
				t.Error(err)
				return
			}
			scrapes++
			for _, line := range strings.Split(b.String(), "\n") {
				sp := strings.LastIndexByte(line, ' ')
				if strings.HasPrefix(line, "#") || sp < 0 {
					continue
				}
				series := line[:sp]
				name, labels, _ := strings.Cut(series, "{")
				if !strings.HasSuffix(name, "_total") {
					continue
				}
				v, err := strconv.ParseFloat(line[sp+1:], 64)
				if err != nil {
					t.Errorf("malformed sample line %q", line)
					return
				}
				if old, ok := prev[series]; ok && v < old {
					mu.Lock()
					exempt := deleted[strings.TrimSuffix(labels, "}")]
					mu.Unlock()
					if !exempt {
						t.Errorf("%s went %v -> %v between scrapes", series, old, v)
					}
				}
				prev[series] = v
			}
		}
	}()
	stopScraper := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopScraper()
	deleteRun := func(id string) {
		mu.Lock()
		deleted[fmt.Sprintf("run_id=%q", id)] = true
		mu.Unlock()
		if err := m.DeleteRun(id); err != nil {
			t.Fatal(err)
		}
	}

	var inline []string
	for seed := int64(80); seed < 86; seed++ {
		req := tinyRequest(seed)
		req.Options.MonteCarloSamples = 40
		req.Options.Shards = 3
		id, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		inline = append(inline, id)
	}
	for _, seed := range warmSeeds {
		req := cellRequest(seed, 2, 2)
		runCellJob(t, m, jobDir, tinySpec(seed), req)
		deleteRun(req.RunID)
	}
	for _, seed := range freshSeeds {
		req := cellRequest(seed, 2, 2)
		runCellJob(t, m, jobDir, tinySpec(seed), req)
		deleteRun(req.RunID)
	}
	for _, id := range inline {
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("inline job finished %s (%s)", st.State, st.Error)
		}
	}
	stopScraper()
	if scrapes < 2 {
		t.Fatalf("only %d scrapes ran", scrapes)
	}
	if hits := scrape(t, m)["comfedsvd_cellcache_hit_total"]; hits == 0 {
		t.Fatal("warm hits of the deleted warm runs were lost")
	}
}
