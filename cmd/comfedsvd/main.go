// Command comfedsvd serves ComFedSV data valuation as a long-running HTTP
// daemon: clients POST valuation jobs (client datasets + options) to
// /v1/jobs, poll status and per-stage/per-shard progress, and fetch the
// finished FedSV / ComFedSV report. Each job is decomposed into a staged
// task graph (prepare, N observation shards, merge+completion, Shapley
// extraction) scheduled round-robin across jobs on one bounded worker
// pool, so a large valuation no longer monopolizes a worker while small
// jobs starve behind it; sharding and scheduling never change a byte of
// any report. Finished reports are optionally persisted to disk so they
// survive restarts, and -job-ttl evicts old terminal jobs. Training runs
// can be registered once as shared /v1/runs resources (content-addressed,
// optionally persisted via -runs-dir) and referenced by any number of jobs
// through "run_id", which amortizes the training trace and the test-loss
// evaluator cache across jobs. /v1/metrics exposes scheduler counters and
// per-stage latency histograms in Prometheus text format; -pprof-addr
// serves net/http/pprof on a separate listener. All daemon output is
// structured log/slog (text by default, -log-json for JSON), with job and
// run IDs attached to lifecycle events. See internal/api for the route
// table and README.md for curl examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"comfedsv/internal/api"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "scheduler worker goroutines, each running one stage task at a time (0 = GOMAXPROCS)")
		par        = flag.Int("parallelism", 0, "per-task CPU parallelism for jobs that don't set it (0 = fair share of GOMAXPROCS across workers)")
		shards     = flag.Int("shards", 0, "observation shards per job for jobs that don't set it (0 = 1; sharding never changes a report)")
		queue      = flag.Int("queue", 64, "max queued jobs before submissions are rejected")
		storeDir   = flag.String("store", "", "directory for persisted job reports (empty = in-memory only)")
		runsDir    = flag.String("runs-dir", "", "directory for persisted shared training runs (empty = in-memory only)")
		jobTTL     = flag.Duration("job-ttl", 0, "evict terminal jobs (memory and store) this long after they finish (0 = keep forever)")
		retries    = flag.Int("max-task-retries", 3, "max re-executions of a transiently failed stage task before the job fails")
		taskTO     = flag.Duration("task-timeout", 0, "per-task execution deadline; a timed-out task is retried as transient (0 = none)")
		jobTO      = flag.Duration("job-timeout", 0, "whole-job wall-clock deadline from start to finish (0 = none)")
		timeout    = flag.Duration("drain", 30*time.Second, "max time to drain running jobs on shutdown")
		dispatchOn = flag.Bool("dispatch", false, "lease observation shards to remote comfedsv-worker daemons over /v1/worker (requires -runs-dir shared with the workers); local execution remains the fallback whenever no worker is live")
		leaseTTL   = flag.Duration("lease-ttl", 2*time.Minute, "revoke and re-lease a shard lease not completed within this window (with -dispatch)")
		workerTTL  = flag.Duration("worker-ttl", 30*time.Second, "consider a worker dead after this long without a heartbeat or poll (with -dispatch)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled); keep it off any public interface")
		logJSON    = flag.Bool("log-json", false, "emit logs as JSON instead of logfmt-style text")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (per-request access logs are debug)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "comfedsvd: bad -log-level %q: %v\n", *logLevel, err)
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
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(2)
	}

	cfg := service.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		DefaultParallelism: *par,
		DefaultShards:      *shards,
		JobTTL:             *jobTTL,
		MaxTaskRetries:     *retries,
		TaskTimeout:        *taskTO,
		JobTimeout:         *jobTO,
		Logger:             logger,
	}
	if *storeDir != "" {
		store, err := persist.NewJobStore(*storeDir)
		if err != nil {
			fatal("opening job store", err)
		}
		cfg.Store = store
	}
	if *runsDir != "" {
		runStore, err := persist.NewRunStore(*runsDir)
		if err != nil {
			fatal("opening run store", err)
		}
		cfg.RunStore = runStore
	}
	var coord *dispatch.Coordinator
	if *dispatchOn {
		if cfg.RunStore == nil {
			fmt.Fprintln(os.Stderr, "comfedsvd: -dispatch requires -runs-dir (workers hydrate training traces from the shared run store)")
			os.Exit(2)
		}
		coord = dispatch.NewCoordinator(dispatch.Config{
			LeaseTTL:  *leaseTTL,
			WorkerTTL: *workerTTL,
			Logger:    logger.With("component", "dispatch"),
		})
		cfg.Dispatcher = coord
	}
	mgr, err := service.NewManager(cfg)
	if err != nil {
		fatal("starting manager", err)
	}

	apiSrv := api.NewServer(mgr)
	// Access logs are chatty under load, so they go out at debug level;
	// lifecycle events (submit/start/done/failed) stay at info.
	apiSrv.SetLogger(slog.New(handler).With("component", "http"))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           apiSrv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Bound the whole request read: without it a client trickling a
		// large job body holds a connection and goroutine open forever.
		ReadTimeout: 5 * time.Minute,
		// Reports for large jobs are big but written in one burst; a minute
		// of write budget only ever cuts off a stalled reader.
		WriteTimeout: time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling is never
		// reachable through the public API port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pmux,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			// CPU and trace profiles stream for their whole profiling window;
			// give writes a generous but bounded budget.
			WriteTimeout: 5 * time.Minute,
			IdleTimeout:  2 * time.Minute,
		}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server", "error", err)
			}
		}()
		defer psrv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr,
		"workers", mgr.Workers(),
		"parallelism", mgr.DefaultParallelism(),
		"shards", mgr.DefaultShards(),
		"queue", *queue,
		"store", *storeDir,
		"runs_dir", *runsDir,
		"job_ttl", *jobTTL,
		"dispatch", *dispatchOn,
	)

	select {
	case err := <-errc:
		fatal("server", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	logger.Info("shutting down", "drain", *timeout)
	if coord != nil {
		// Close the coordinator first: long-polling workers get an
		// immediate ErrClosed instead of pinning connections through the
		// HTTP drain window, and in-flight remote shards fail over to the
		// local fallback or drain with the manager below.
		coord.Close()
	}
	// Separate budgets: a stalled HTTP client must not eat into the time
	// promised to running jobs by -drain.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(httpCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	cancelHTTP()
	drainCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		logger.Warn("job drain: queued and running jobs were aborted", "error", err)
	}
	logger.Info("bye")
}
