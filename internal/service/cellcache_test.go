package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"comfedsv"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
	"comfedsv/internal/utility"
)

// cellRequest is a run-backed Monte-Carlo valuation against tinySpec(seed)
// with the given observation sharding — the job shape whose cells the
// persistent cache warm-starts.
func cellRequest(seed int64, shards, parallelism int) Request {
	req := tinyRequest(seed)
	req.Options.MonteCarloSamples = 64
	req.Options.Shards = shards
	req.Options.Parallelism = parallelism
	return Request{RunID: RunIDForSpec(tinySpec(seed)), Options: req.Options}
}

// cellStores opens job and run stores over the given directories.
func cellStores(t *testing.T, jobDir, runDir string) (*persist.JobStore, *persist.RunStore) {
	t.Helper()
	jobs, err := persist.NewJobStore(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := persist.NewRunStore(runDir)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, runs
}

// wideSpec is tinySpec with six clients: 63 coalitions per round instead
// of 15, so a 48-permutation adaptive budget cannot cover the cell space
// in its first wave and later waves flush genuinely new cells.
func wideSpec(seed int64) RunSpec {
	mk := func(off float64) comfedsv.Client {
		var c comfedsv.Client
		for i := 0; i < 8; i++ {
			x := off + float64(i)*0.3
			label := 0
			if x > 1 {
				label = 1
			}
			c.X = append(c.X, []float64{x, 1 - x})
			c.Y = append(c.Y, label)
		}
		return c
	}
	clients := []comfedsv.Client{mk(-0.4), mk(-0.15), mk(0.1), mk(0.35), mk(0.6), mk(1.1)}
	opts := comfedsv.DefaultOptions(2)
	opts.Rounds = 4
	opts.ClientsPerRound = 3
	opts.Seed = seed
	return RunSpec{Clients: clients, Test: mk(0.25), Options: opts}
}

// runCellJob registers spec's run on m (a no-op dedup when the run was
// recovered from the store), submits req, waits for it, and returns the
// persisted report bytes.
func runCellJob(t *testing.T, m *Manager, jobDir string, spec RunSpec, req Request) []byte {
	t.Helper()
	st, _, err := m.CreateRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRunTerminal(t, m, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s), want ready", got.State, got.Error)
	}
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, m, id); s.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", s.State, s.Error)
	}
	return reportBytes(t, jobDir, id)
}

// runMisses returns the shared run's distinct-evaluation count from the
// manager's /v1/metrics exposition.
func runMisses(t *testing.T, m *Manager, runID string) int {
	t.Helper()
	series := fmt.Sprintf("comfedsvd_run_cache_misses_total{run_id=%q}", runID)
	v, ok := scrape(t, m)[series]
	if !ok {
		t.Fatalf("run %s missing from metrics", runID)
	}
	return int(v)
}

// TestWarmCacheByteIdenticalAcrossRestart is the tentpole acceptance test
// at the service layer: a run-backed job on a fresh daemon writes its
// evaluated cells to the run's sidecar; a restarted daemon over the same
// stores preloads them, serves the identical job entirely from warm cells
// (zero paid evaluations), and produces a byte-identical report — swept
// over the shard/parallelism matrix.
func TestWarmCacheByteIdenticalAcrossRestart(t *testing.T) {
	const seed = 61
	for _, combo := range []struct{ shards, par int }{
		{1, 1}, {1, 4}, {2, 1}, {2, 4}, {8, 1}, {8, 4},
	} {
		combo := combo
		t.Run(fmt.Sprintf("shards=%d_par=%d", combo.shards, combo.par), func(t *testing.T) {
			req := cellRequest(seed, combo.shards, combo.par)
			jobDir, runDir := t.TempDir(), t.TempDir()
			jobs1, runs1 := cellStores(t, jobDir, runDir)

			m1 := newManager(t, Config{Workers: 2, Store: jobs1, RunStore: runs1})
			cold := runCellJob(t, m1, jobDir, tinySpec(seed), req)
			met1 := &m1.met
			if met1.cellsPersisted.Value() == 0 {
				t.Fatal("cold job persisted no cells")
			}
			if met1.cellsPreloaded.Value() != 0 || met1.cellsCorrupt.Value() != 0 {
				t.Fatalf("cold manager preloaded=%d corrupt=%d, want 0/0", met1.cellsPreloaded.Value(), met1.cellsCorrupt.Value())
			}
			if !runs1.HasCells(req.RunID) {
				t.Fatal("no cell sidecar on disk after the cold job")
			}
			shutdown(t, m1)

			// "Restart the daemon": fresh stores, fresh manager, same disk.
			jobs2, runs2 := cellStores(t, jobDir, runDir)
			m2 := newManager(t, Config{Workers: 2, Store: jobs2, RunStore: runs2})
			warm := runCellJob(t, m2, jobDir, tinySpec(seed), req)
			if !bytes.Equal(cold, warm) {
				t.Fatalf("warm report is not byte-identical to cold:\n%s\nvs\n%s", warm, cold)
			}
			met2 := &m2.met
			if met2.cellsPreloaded.Value() == 0 {
				t.Fatal("restarted manager preloaded no cells from the sidecar")
			}
			if scrape(t, m2)["comfedsvd_cellcache_hit_total"] == 0 {
				t.Fatal("warm job recorded no warm hits")
			}
			// The identical job re-evaluates nothing: every cell the cold
			// job paid for is served from the preloaded cache.
			if miss := runMisses(t, m2, req.RunID); miss != 0 {
				t.Fatalf("warm job paid %d evaluations, want 0 (hit rate below 100%%)", miss)
			}
		})
	}
}

// TestCellCacheHitCounterSurvivesDeleteRun: comfedsvd_cellcache_hit_total
// is a counter, so deleting a warm run must not lower it. The restart
// fixture makes the run warm: a cold manager fills its sidecar, and a
// restarted one serves the identical job from preloaded cells.
func TestCellCacheHitCounterSurvivesDeleteRun(t *testing.T) {
	const seed = 73
	req := cellRequest(seed, 2, 2)
	jobDir, runDir := t.TempDir(), t.TempDir()
	jobs1, runs1 := cellStores(t, jobDir, runDir)
	m1 := newManager(t, Config{Workers: 2, Store: jobs1, RunStore: runs1})
	runCellJob(t, m1, jobDir, tinySpec(seed), req)
	shutdown(t, m1)

	jobs2, runs2 := cellStores(t, jobDir, runDir)
	m2 := newManager(t, Config{Workers: 2, Store: jobs2, RunStore: runs2})
	runCellJob(t, m2, jobDir, tinySpec(seed), req)
	const series = "comfedsvd_cellcache_hit_total"
	before := scrape(t, m2)[series]
	if before == 0 {
		t.Fatal("warm job served no warm hits")
	}
	if err := m2.DeleteRun(req.RunID); err != nil {
		t.Fatal(err)
	}
	if after := scrape(t, m2)[series]; after != before {
		t.Fatalf("%s went %v -> %v across DeleteRun, want unchanged", series, before, after)
	}
}

// TestWarmCacheSharedAcrossJobsSameDaemon pins the cheaper half of the
// contract: within one daemon the second job over the same run is served
// by the shared evaluator, and flushes append nothing new to the sidecar.
func TestWarmCacheSharedAcrossJobsSameDaemon(t *testing.T) {
	const seed = 63
	req := cellRequest(seed, 2, 2)
	jobDir, runDir := t.TempDir(), t.TempDir()
	jobs, runs := cellStores(t, jobDir, runDir)
	m := newManager(t, Config{Workers: 2, Store: jobs, RunStore: runs})

	first := runCellJob(t, m, jobDir, tinySpec(seed), req)
	persisted := m.Metrics().CellsPersisted
	if persisted == 0 {
		t.Fatal("first job persisted no cells")
	}
	second := runCellJob(t, m, jobDir, tinySpec(seed), req)
	if !bytes.Equal(first, second) {
		t.Fatal("second job over the same run is not byte-identical")
	}
	if after := m.Metrics().CellsPersisted; after != persisted {
		t.Fatalf("second identical job persisted %d more cells, want 0", after-persisted)
	}
}

// TestCorruptSidecarQuarantinedJobRunsCold injects both corruption shapes
// — an unparseable line and a well-formed batch with a wrong digest — and
// requires the same degradation either way: the sidecar is quarantined,
// the counter ticks, and the job completes byte-identically cold. A
// damaged cache must never fail a job.
func TestCorruptSidecarQuarantinedJobRunsCold(t *testing.T) {
	const seed = 67
	req := cellRequest(seed, 2, 2)

	corruptions := []struct {
		name string
		line func(t *testing.T) []byte
	}{
		{"unparseable-line", func(t *testing.T) []byte {
			return []byte("{definitely not json\n")
		}},
		{"digest-mismatch", func(t *testing.T) []byte {
			b := &utility.CellBatch{N: 4, Cells: []utility.SnapshotCell{{Round: 0, Mask: 0b1, Value: 0.5}}}
			b.Stamp()
			b.Digest = strings.Repeat("0", 16)
			raw, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			return append(raw, '\n')
		}},
	}
	for _, tc := range corruptions {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			jobDir, runDir := t.TempDir(), t.TempDir()
			jobs1, runs1 := cellStores(t, jobDir, runDir)
			m1 := newManager(t, Config{Workers: 2, Store: jobs1, RunStore: runs1})
			want := runCellJob(t, m1, jobDir, tinySpec(seed), req)
			shutdown(t, m1)

			// Damage the sidecar with a complete (newline-terminated) bad line.
			side := filepath.Join(runDir, req.RunID+".cells")
			f, err := os.OpenFile(side, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.line(t)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			jobs2, runs2 := cellStores(t, jobDir, runDir)
			m2 := newManager(t, Config{Workers: 2, Store: jobs2, RunStore: runs2})
			got := runCellJob(t, m2, jobDir, tinySpec(seed), req)
			if !bytes.Equal(want, got) {
				t.Fatal("job over a corrupt sidecar is not byte-identical to the clean run")
			}
			met := &m2.met
			if met.cellsCorrupt.Value() == 0 {
				t.Fatal("corrupt sidecar not counted")
			}
			if _, err := os.Stat(side + ".corrupt"); err != nil {
				t.Fatalf("quarantined sidecar missing: %v", err)
			}
			if tc.name == "digest-mismatch" {
				// A bad digest is caught at preload time: the valid batches
				// before it install fine, so the job runs fully warm and has
				// nothing new to flush.
				if met.cellsPreloaded.Value() == 0 {
					t.Fatal("valid batches before the corrupt one were not preloaded")
				}
			} else {
				// An unparseable line poisons the whole read: the job runs
				// cold and its flushes start a clean sidecar a third daemon
				// warm-starts from as if nothing happened.
				if met.cellsPreloaded.Value() != 0 {
					t.Fatalf("unreadable sidecar still preloaded %d cells", met.cellsPreloaded.Value())
				}
				if !runs2.HasCells(req.RunID) {
					t.Fatal("no fresh sidecar after the recovering job")
				}
				shutdown(t, m2)
				jobs3, runs3 := cellStores(t, jobDir, runDir)
				m3 := newManager(t, Config{Workers: 2, Store: jobs3, RunStore: runs3})
				again := runCellJob(t, m3, jobDir, tinySpec(seed), req)
				if !bytes.Equal(want, again) {
					t.Fatal("post-quarantine warm start is not byte-identical")
				}
				if m3.met.cellsPreloaded.Value() == 0 {
					t.Fatal("fresh sidecar after quarantine did not warm-start the next daemon")
				}
			}
		})
	}
}

// TestSidecarQuarantineCrashResurrectionReQuarantines is the sidecar twin
// of TestQuarantineCrashResurrectionReQuarantines: a crash between the
// sidecar quarantine's rename and its directory sync
// (faultinject.OpQuarantine) can lose the rename and resurrect the corrupt
// sidecar. The next daemon must quarantine it again and run the job cold
// to the report a clean daemon produces.
func TestSidecarQuarantineCrashResurrectionReQuarantines(t *testing.T) {
	const seed = 71
	req := cellRequest(seed, 2, 2)

	cleanJobDir, cleanRunDir := t.TempDir(), t.TempDir()
	cleanJobs, cleanRuns := cellStores(t, cleanJobDir, cleanRunDir)
	m0 := newManager(t, Config{Workers: 2, Store: cleanJobs, RunStore: cleanRuns})
	want := runCellJob(t, m0, cleanJobDir, tinySpec(seed), req)

	jobDir, runDir := t.TempDir(), t.TempDir()
	side := filepath.Join(runDir, req.RunID+".cells")
	if err := os.WriteFile(side, []byte("{definitely not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The first daemon trains the run, finds the corrupt sidecar during
	// the warm start, and crashes in the quarantine window. It survives —
	// a cache never fails a run — but the rename never became durable.
	crash := faultinject.CrashNth(faultinject.OpQuarantine, "quarantine", 1)
	var crashedAt atomic.Value
	hook := func(p faultinject.Point) error {
		err := crash(p)
		if errors.Is(err, faultinject.ErrCrash) {
			crashedAt.Store(p.JobID)
		}
		return err
	}
	jobs1, runs1 := cellStores(t, jobDir, runDir)
	m1 := newManager(t, Config{Workers: 2, Store: jobs1, RunStore: runs1, FaultHook: hook})
	st, _, err := m1.CreateRun(tinySpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitRunTerminal(t, m1, st.ID); got.State != RunReady {
		t.Fatalf("run finished %s (%s), want ready", got.State, got.Error)
	}
	if at, _ := crashedAt.Load().(string); at != req.RunID {
		t.Fatalf("sidecar quarantine crash point fired for %q, want run %s", at, req.RunID)
	}
	// Abandon m1 and roll the rename back, modeling the lost directory
	// update.
	if err := os.Rename(side+".corrupt", side); err != nil {
		t.Fatal(err)
	}

	jobs2, runs2 := cellStores(t, jobDir, runDir)
	m2 := newManager(t, Config{Workers: 2, Store: jobs2, RunStore: runs2})
	got := runCellJob(t, m2, jobDir, tinySpec(seed), req)
	if !bytes.Equal(want, got) {
		t.Fatal("job over the resurrected sidecar is not byte-identical to the clean run")
	}
	met := &m2.met
	if met.cellsCorrupt.Value() != 1 || met.cellsPreloaded.Value() != 0 {
		t.Fatalf("resurrected sidecar: corrupt=%d preloaded=%d, want 1/0", met.cellsCorrupt.Value(), met.cellsPreloaded.Value())
	}
	if _, err := os.Stat(side + ".corrupt"); err != nil {
		t.Fatalf("sidecar not re-quarantined: %v", err)
	}
}

// TestCellFlushCrashEverywhereResumesByteIdentical sweeps simulated
// process death across every sidecar-append point the job actually
// executes — before and after each fsync — and requires the restarted
// daemon to finish the job byte-identically. The sweep is exhaustive by
// construction: it ends at the first point no crash fires for, so every
// append of this job shape (however the flush boundaries fall) is
// covered.
func TestCellFlushCrashEverywhereResumesByteIdentical(t *testing.T) {
	const seed = 69
	spec := wideSpec(seed)
	opts := spec.Options
	opts.MonteCarloSamples = 48
	opts.Tolerance = 1e-9 // never converges: the full budget runs in doubling waves
	opts.Shards = 2
	req := Request{RunID: RunIDForSpec(spec), Options: opts}

	baseJobDir, baseRunDir := t.TempDir(), t.TempDir()
	baseJobs, baseRuns := cellStores(t, baseJobDir, baseRunDir)
	mb := newManager(t, Config{Workers: 2, Store: baseJobs, RunStore: baseRuns})
	want := runCellJob(t, mb, baseJobDir, spec, req)
	shutdown(t, mb)

	const maxPoints = 60
	for n := 1; ; n++ {
		if n > maxPoints {
			t.Fatalf("cell crash-point sweep did not terminate within %d points", maxPoints)
		}
		jobDir, runDir := t.TempDir(), t.TempDir()
		jobs1, runs1 := cellStores(t, jobDir, runDir)
		var count atomic.Int64
		var fired atomic.Bool
		hook := func(p faultinject.Point) error {
			if p.Op != faultinject.OpCellsBefore && p.Op != faultinject.OpCellsAfter {
				return nil
			}
			if count.Add(1) == int64(n) {
				fired.Store(true)
				return faultinject.ErrCrash
			}
			return nil
		}
		m1, err := NewManager(Config{Workers: 2, Store: jobs1, RunStore: runs1, FaultHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := m1.CreateRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitRunTerminal(t, m1, st.ID); got.State != RunReady {
			t.Fatalf("point %d: run finished %s (%s)", n, got.State, got.Error)
		}
		id, err := m1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jst := waitTerminal(t, m1, id)
		shutdown(t, m1)

		if !fired.Load() {
			if jst.State != StateDone {
				t.Fatalf("fault-free run finished %s (%s)", jst.State, jst.Error)
			}
			if got := reportBytes(t, jobDir, id); !bytes.Equal(got, want) {
				t.Fatalf("point %d: fault-free report diverges from baseline", n)
			}
			t.Logf("swept %d cell-flush crash points", n-1)
			return
		}
		if jst.State != StateFailed || !strings.Contains(jst.Error, "simulated crash") {
			t.Fatalf("point %d: crashed job state %s error %q", n, jst.State, jst.Error)
		}

		// Restart over the frozen disk: the journaled job resumes, the
		// sidecar's durable prefix (possibly including the batch whose
		// post-fsync hook crashed) warm-starts it.
		jobs2, runs2 := cellStores(t, jobDir, runDir)
		m2, err := NewManager(Config{Workers: 2, Store: jobs2, RunStore: runs2})
		if err != nil {
			t.Fatalf("point %d: restart: %v", n, err)
		}
		finalID := id
		if _, serr := m2.Status(id); errors.Is(serr, ErrNotFound) {
			finalID, err = m2.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
		}
		if s := waitTerminal(t, m2, finalID); s.State != StateDone {
			t.Fatalf("point %d: resumed job finished %s (%s)", n, s.State, s.Error)
		}
		if got := reportBytes(t, jobDir, finalID); !bytes.Equal(got, want) {
			t.Fatalf("point %d: resumed report is not byte-identical", n)
		}
		shutdown(t, m2)
	}
}
