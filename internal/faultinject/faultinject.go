// Package faultinject provides deterministic fault schedules for chaos
// testing the comfedsvd job engine. It is dependency-free (standard
// library only) so every layer — persist, service, api — can thread a
// Hook through its execution points without import cycles.
//
// A Hook is consulted at instrumented points (task executions, journal
// appends) and decides, deterministically, what fault to inject there:
// a transient error (retried by the scheduler), a panic (exercising the
// panic-isolation path), or a simulated process crash (freezing on-disk
// state exactly as a dying daemon would). Faults
// are scheduled by match count or by a seeded pseudo-random schedule,
// never by wall clock or real randomness, so a chaos test that fails
// replays identically from its seed.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
)

// Instrumented operation names used by the job engine's hook points.
const (
	// OpTask is consulted immediately before a scheduler stage task
	// executes. Stage is the task's stage name (prepare, observe,
	// complete, shapley), Shard its observation shard index (-1 for
	// non-shard stages), Attempt its 0-based retry attempt.
	OpTask = "task"
	// OpJournalBefore is consulted before a journal record is appended
	// (an injected crash here loses the record); OpJournalAfter after the
	// record is durably on disk (a crash here keeps it). Stage carries
	// the pipeline stage for task records (prepare, observe, complete,
	// shapley) and the record type otherwise (submit, fail); Shard is the
	// task record's shard.
	OpJournalBefore = "journal.before"
	OpJournalAfter  = "journal.after"
	// OpCellsBefore is consulted before a cell-cache batch is appended to
	// a run's sidecar (an injected crash here loses the batch);
	// OpCellsAfter after the batch is durably on disk (a crash here keeps
	// it). Stage is the flush boundary the producer names (e.g. "merge",
	// "extract", or "worker"); Shard is -1; JobID carries the run ID.
	OpCellsBefore = "cells.before"
	OpCellsAfter  = "cells.after"
	// OpQuarantine is consulted between a journal's or cell sidecar's
	// quarantine rename and the directory sync that makes it durable — an
	// injected crash here models losing the directory update, the window
	// in which a crashed daemon can resurrect a quarantined file. Stage is
	// "quarantine"; Shard is -1; JobID carries the job ID for a journal
	// and the run ID for a sidecar.
	OpQuarantine = "store.quarantine"
)

// Point identifies one instrumented step of the job engine.
type Point struct {
	// Op is one of the Op* constants.
	Op string
	// Stage is the task stage or journal record type at this point.
	Stage string
	// Shard is the observation shard index, -1 for non-shard points.
	Shard int
	// Attempt is the task's 0-based retry attempt; 0 for journal points.
	Attempt int
	// JobID is the owning job, when known.
	JobID string
}

func (p Point) String() string {
	return fmt.Sprintf("%s/%s shard=%d attempt=%d job=%s", p.Op, p.Stage, p.Shard, p.Attempt, p.JobID)
}

// Hook inspects an instrumented point and returns the fault to inject
// there: nil for none, ErrCrash (via Crash) to simulate process death, a
// *PanicError to make the harness panic at the point, or any other error
// to fail the step with it (wrap with Transient to make the scheduler
// retry it). Hooks must be safe for concurrent use; every constructor in
// this package returns one that is.
type Hook func(Point) error

// ErrCrash is the simulated-process-death sentinel. A journal that
// receives it stops accepting appends (its on-disk state freezes exactly
// as a dying process would leave it) and the scheduler fails the job
// without writing a failure record — the in-memory manager is then
// abandoned by the test and a fresh one recovers from the frozen disk.
var ErrCrash = errors.New("faultinject: simulated crash")

// PanicError instructs the harness to panic with Msg at the matched
// point, exercising the scheduler's panic-isolation path. It is returned
// by hooks, not thrown by them, so the panic happens inside the
// instrumented frame where the production recover lives.
type PanicError struct{ Msg string }

func (e *PanicError) Error() string { return "faultinject: injected panic: " + e.Msg }

// transientError marks an injected failure as retryable via the
// structural Transient() contract the scheduler's classifier checks.
type transientError struct{ err error }

func (t *transientError) Error() string   { return t.err.Error() }
func (t *transientError) Unwrap() error   { return t.err }
func (t *transientError) Transient() bool { return true }

// Transient wraps err so the scheduler treats the injected failure as
// retryable. A nil err yields a generic transient fault.
func Transient(err error) error {
	if err == nil {
		err = errors.New("faultinject: injected transient fault")
	}
	return &transientError{err: err}
}

// Chain composes hooks: the first non-nil fault wins. Later hooks are
// not consulted once one fires, so their match counters only advance on
// points the earlier hooks let through.
func Chain(hooks ...Hook) Hook {
	return func(p Point) error {
		for _, h := range hooks {
			if h == nil {
				continue
			}
			if err := h(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// matcher selects the points a rule applies to. Zero fields match
// everything of the hook's op.
type matcher struct {
	op    string
	stage string
	shard int // -2 matches any shard
}

func (m matcher) matches(p Point) bool {
	if m.op != "" && p.Op != m.op {
		return false
	}
	if m.stage != "" && p.Stage != m.stage {
		return false
	}
	if m.shard != -2 && p.Shard != m.shard {
		return false
	}
	return true
}

// counted returns a hook that fires fault on the nth (1-based) matching
// point and never again. Each call owns its own counter, so two rules
// built from the same arguments count independently.
func counted(m matcher, n int, fault func(Point) error) Hook {
	var mu sync.Mutex
	seen := 0
	return func(p Point) error {
		if !m.matches(p) {
			return nil
		}
		mu.Lock()
		seen++
		hit := seen == n
		mu.Unlock()
		if hit {
			return fault(p)
		}
		return nil
	}
}

// FailNth fails the nth (1-based) execution of the given task stage with
// a transient error, so the scheduler's retry path runs. An empty stage
// matches every task point.
func FailNth(stage string, n int) Hook {
	return counted(matcher{op: OpTask, stage: stage, shard: -2}, n, func(p Point) error {
		return Transient(fmt.Errorf("faultinject: injected failure at %s", p))
	})
}

// FailNthFatal fails the nth matching task execution with a permanent
// (non-retryable) error.
func FailNthFatal(stage string, n int) Hook {
	return counted(matcher{op: OpTask, stage: stage, shard: -2}, n, func(p Point) error {
		return fmt.Errorf("faultinject: injected fatal failure at %s", p)
	})
}

// PanicNth makes the nth (1-based) execution of the given task stage
// panic, exercising the scheduler's panic isolation. An empty stage
// matches every task point.
func PanicNth(stage string, n int) Hook {
	return counted(matcher{op: OpTask, stage: stage, shard: -2}, n, func(p Point) error {
		return &PanicError{Msg: p.String()}
	})
}

// CrashNth simulates process death at the nth (1-based) matching point
// of the given op ("" matches every op) and stage ("" matches every
// stage). Use with OpJournalBefore / OpJournalAfter to freeze the
// journal just before or just after a specific append.
func CrashNth(op, stage string, n int) Hook {
	return counted(matcher{op: op, stage: stage, shard: -2}, n, func(Point) error {
		return ErrCrash
	})
}

// CrashAtJournalOp simulates process death at the nth (1-based) journal
// hook point of either kind, in arrival order — the enumeration knob the
// crash-everywhere determinism suites sweep.
func CrashAtJournalOp(n int) Hook {
	var mu sync.Mutex
	seen := 0
	return func(p Point) error {
		if p.Op != OpJournalBefore && p.Op != OpJournalAfter {
			return nil
		}
		mu.Lock()
		seen++
		hit := seen == n
		mu.Unlock()
		if hit {
			return ErrCrash
		}
		return nil
	}
}

// Seeded returns a hook that fails matching task points pseudo-randomly
// with the given rate, deterministically from seed: the same seed and
// the same sequence of matching points inject the same faults. Failures
// are transient. The generator is a splitmix64 stream, advanced once per
// matching point under a mutex, so schedules are stable for serial
// arrival orders (the chaos suites serialize the jobs they sweep).
func Seeded(stage string, rate float64, seed int64) Hook {
	m := matcher{op: OpTask, stage: stage, shard: -2}
	var mu sync.Mutex
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	return func(p Point) error {
		if !m.matches(p) {
			return nil
		}
		mu.Lock()
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		mu.Unlock()
		// 53 high bits → uniform float in [0, 1).
		if float64(z>>11)/(1<<53) < rate {
			return Transient(fmt.Errorf("faultinject: seeded failure at %s", p))
		}
		return nil
	}
}

// Notify invokes fn at every matching point (op "" matches all) and
// never injects a fault — the observation seam chaos tests use to learn
// that a crash point was reached or to count executions.
func Notify(op, stage string, fn func(Point)) Hook {
	m := matcher{op: op, stage: stage, shard: -2}
	return func(p Point) error {
		if m.matches(p) {
			fn(p)
		}
		return nil
	}
}
