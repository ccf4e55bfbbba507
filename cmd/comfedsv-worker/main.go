// Command comfedsv-worker is the remote half of distributed observation:
// a work-pull daemon that registers with a comfedsvd coordinator, long-polls
// POST /v1/worker/lease for observation-shard leases, pays each lease's
// cells against the training trace hydrated from the shared run store, and
// reports them back as one digest-stamped cell batch. A lease carries the
// shard's cell list — a contiguous chunk of its wave's cells, plan and
// FedSV cells alike — so the worker never rebuilds a plan and serves
// exact and Monte-Carlo jobs alike. The list is validated against
// the run before any cell is paid. The coordinator verifies the batch,
// checks it holds exactly the leased cells, preloads it, and observes the
// shard from its own cache, so adding workers (or losing one mid-shard —
// its lease expires and the shard is re-leased) never changes a byte of
// any report.
//
// Hydrated runs are cached by run ID — utility cells are pure functions of
// the trace, independent of any job — and warm-started from the run's
// `<runID>.cells` sidecar when present, so a worker skips every evaluation
// some earlier job, process, or peer already paid for. The coordinator
// persists whatever a completion's batch adds to its cache for the next
// reader. A damaged sidecar is quarantined and the run proceeds cold; the
// cache is an optimization, never a correctness dependency.
//
// The worker needs exactly two things from the deployment: the
// coordinator's base URL and the same -runs-dir the coordinator persists
// shared training runs into (a shared filesystem or a synchronized copy).
// Leases whose runs the worker cannot load, or whose cell lists do not fit
// the run, are failed back to the coordinator, whose retry ladder
// re-leases the shard, or runs it locally once no worker is live.
// Workers and coordinator upgrade together: a worker built before leases
// carried cells fails them back.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/persist"
)

func main() {
	var (
		coordURL = flag.String("coordinator", "http://localhost:8080", "base URL of the comfedsvd coordinator")
		runsDir  = flag.String("runs-dir", "", "directory of the shared run store (must hold the same runs the coordinator persists)")
		workerID = flag.String("id", "", "worker identity reported to the coordinator (default host-pid)")
		par      = flag.Int("parallelism", 0, "CPU parallelism for paying a lease's cells (0 = GOMAXPROCS)")
		poll     = flag.Duration("poll", 30*time.Second, "long-poll window per lease request")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON instead of logfmt-style text")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "comfedsv-worker: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)

	if *runsDir == "" {
		fmt.Fprintln(os.Stderr, "comfedsv-worker: -runs-dir is required (the shared run store the coordinator persists training traces into)")
		os.Exit(2)
	}
	runs, err := persist.NewRunStore(*runsDir)
	if err != nil {
		logger.Error("opening run store", "error", err)
		os.Exit(2)
	}

	id := *workerID
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	parallelism := *par
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &worker{
		client:      dispatch.NewClient(*coordURL, id),
		runs:        runs,
		parallelism: parallelism,
		poll:        *poll,
		log:         logger.With("worker", id),
		trained:     make(map[string]*comfedsv.TrainedRun),
	}
	if err := w.run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		w.log.Error("worker exited", "error", err)
		os.Exit(1)
	}
	w.log.Info("bye")
}

// maxCachedRuns bounds the worker's hydrated-run cache. A TrainedRun
// holds the trace, the test set, and the utility-cell memo table, so an
// unbounded cache on a long-lived worker is a slow leak; eviction only
// costs a re-hydration (and the sidecar re-warms the cells). Keyed by
// run ID alone because cells depend only on the trace: two jobs over the
// same run share every overlapping cell.
const maxCachedRuns = 4

type worker struct {
	client      *dispatch.Client
	runs        *persist.RunStore
	parallelism int
	poll        time.Duration
	log         *slog.Logger

	mu      sync.Mutex
	trained map[string]*comfedsv.TrainedRun
}

// run is the daemon loop: register (retrying until the coordinator is
// reachable), heartbeat in the background, and pull leases until the
// context dies. A graceful exit deregisters so the coordinator re-leases
// immediately instead of waiting out the liveness window.
func (w *worker) run(ctx context.Context) error {
	reg, err := w.register(ctx)
	if err != nil {
		return err
	}
	w.log.Info("registered",
		"lease_ttl_seconds", reg.LeaseTTLSeconds,
		"worker_ttl_seconds", reg.WorkerTTLSeconds,
	)

	// Heartbeat at a third of the liveness window so one dropped request
	// doesn't kill the registration. Heartbeats re-register idempotently,
	// healing the worker after a coordinator restart.
	hbInterval := time.Duration(reg.WorkerTTLSeconds * float64(time.Second) / 3)
	if hbInterval < time.Second {
		hbInterval = time.Second
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := w.client.Heartbeat(hbCtx); err != nil && hbCtx.Err() == nil {
					w.log.Warn("heartbeat", "error", err)
				}
			}
		}
	}()
	defer func() {
		stopHB()
		hbWG.Wait()
		// The parent context is already dead here; give the goodbye its
		// own short budget.
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := w.client.Deregister(dctx); err != nil {
			w.log.Warn("deregister", "error", err)
		}
	}()

	backoff := time.Second
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.client.Lease(ctx, w.poll)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.log.Warn("lease poll", "error", err, "backoff", backoff)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 30*time.Second {
				backoff = 30 * time.Second
			}
			continue
		}
		backoff = time.Second
		if lease == nil {
			continue // poll window elapsed with no work
		}
		w.serve(ctx, lease)
	}
}

// register announces the worker, retrying with capped backoff until the
// coordinator answers — workers routinely start before the daemon.
func (w *worker) register(ctx context.Context) (*dispatch.RegisterResponse, error) {
	backoff := time.Second
	for {
		reg, err := w.client.Register(ctx)
		if err == nil {
			return reg, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		w.log.Warn("register", "error", err, "backoff", backoff)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
	}
}

// serve evaluates one lease and reports the outcome. Evaluation errors
// are failed back to the coordinator (which re-leases or falls back to
// local execution); report errors are logged and abandoned — the lease
// deadline re-leases the shard regardless.
func (w *worker) serve(ctx context.Context, lease *dispatch.Lease) {
	t := lease.Task
	log := w.log.With("lease", lease.ID, "job", t.JobID, "run", t.RunID,
		"shard", t.Shard)
	log.Info("lease granted")
	start := time.Now()
	cells, err := w.observe(ctx, t)
	if err != nil {
		if ctx.Err() != nil {
			// Shutdown mid-shard: the deferred deregister revokes the
			// lease, so the coordinator re-leases without waiting out
			// the deadline. Don't report a spurious failure.
			return
		}
		log.Warn("shard evaluation failed", "error", err)
		if ferr := w.client.Fail(ctx, lease.ID, err.Error()); ferr != nil {
			log.Warn("reporting failure", "error", ferr)
		}
		return
	}
	if err := w.client.Complete(ctx, lease.ID, cells); err != nil {
		log.Warn("reporting shard", "error", err)
		return
	}
	log.Info("shard completed", "cells", len(cells.Cells), "digest", cells.Digest,
		"elapsed", time.Since(start).Round(time.Millisecond))
}

// observe pays the leased cells against the cached (sidecar-warmed) run.
func (w *worker) observe(ctx context.Context, t dispatch.Task) (*comfedsv.CellBatch, error) {
	tr, err := w.trainedRun(t.RunID)
	if err != nil {
		return nil, err
	}
	return tr.PayCells(ctx, t.Cells, w.parallelism)
}

// trainedRun returns the cached hydrated run for runID, loading the
// trace from the shared store and warm-starting its evaluator from the
// cell sidecar on first use.
func (w *worker) trainedRun(runID string) (*comfedsv.TrainedRun, error) {
	w.mu.Lock()
	tr, ok := w.trained[runID]
	w.mu.Unlock()
	if ok {
		return tr, nil
	}
	run, err := w.runs.LoadRun(runID)
	if err != nil {
		return nil, fmt.Errorf("hydrating run %s: %w", runID, err)
	}
	tr = comfedsv.NewTrainedRun(run)
	// The sidecar warm start is best-effort: a damaged sidecar is
	// quarantined and the run proceeds cold — a lease never fails over a
	// cache.
	added, err := w.runs.PreloadCells(runID, tr.PreloadCells, nil)
	if err != nil {
		w.log.Warn("cell cache corrupt, quarantined", "run", runID, "error", err)
	}
	if added > 0 {
		w.log.Info("cell cache preloaded", "run", runID, "cells", added)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cached, ok := w.trained[runID]; ok {
		return cached, nil
	}
	if len(w.trained) >= maxCachedRuns {
		for k := range w.trained {
			delete(w.trained, k)
			break
		}
	}
	w.trained[runID] = tr
	return tr, nil
}
