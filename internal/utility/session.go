package utility

import (
	"context"
	"sync"
	"sync/atomic"

	"comfedsv/internal/fl"
)

// Source is the utility oracle every valuation pipeline consumes: a
// memoized view of one completed FedAvg run. *Evaluator is the canonical
// implementation; *Session layers per-job accounting over a shared
// Evaluator so several valuation jobs can reuse one memo table while each
// still reports the utility-call count it would have paid alone.
type Source interface {
	// Run returns the underlying federated run.
	Run() *fl.Run
	// Utility returns U_t(S); the empty coalition has utility 0.
	Utility(t int, s Set) float64
	// UtilityBatchCtx evaluates cells concurrently on a bounded pool and
	// returns the utilities in input order.
	UtilityBatchCtx(ctx context.Context, cells []Cell, workers int) ([]float64, error)
	// Calls returns the number of distinct utility cells this source has
	// been asked for — the Section VII-D cost a standalone evaluator would
	// have paid.
	Calls() int
}

var (
	_ Source = (*Evaluator)(nil)
	_ Source = (*Session)(nil)
)

// Session is one valuation job's view of a shared Evaluator. All lookups
// hit the shared memo table (so concurrent jobs over the same run amortize
// test-loss evaluations), but the session separately tracks the distinct
// cells *it* requested: Calls reports exactly what a fresh evaluator would
// have reported for the same pipeline, which keeps run-backed job reports
// byte-identical to their inline-training equivalents. Hits and Misses
// split those distinct cells by whether the shared table already held them.
//
// A Session is safe for concurrent use by the goroutines of the one job it
// belongs to; distinct jobs must use distinct sessions.
type Session struct {
	e        *Evaluator
	distinct atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	shards   [evalShards]sessionShard
}

type sessionShard struct {
	mu   sync.Mutex
	seen map[cellKey]struct{}
}

// NewSession returns a fresh per-job view of the evaluator.
func (e *Evaluator) NewSession() *Session {
	s := &Session{e: e}
	for i := range s.shards {
		s.shards[i].seen = make(map[cellKey]struct{})
	}
	return s
}

// Run returns the underlying federated run.
func (s *Session) Run() *fl.Run { return s.e.run }

// Calls returns the number of distinct cells this session requested. It
// equals Hits()+Misses() and matches the Calls a standalone Evaluator
// would report for the same request sequence.
func (s *Session) Calls() int { return int(s.distinct.Load()) }

// Hits returns how many of this session's distinct cells were already in
// the shared memo table (paid for by an earlier job or an earlier stage of
// a concurrent one).
func (s *Session) Hits() int { return int(s.hits.Load()) }

// Misses returns how many of this session's distinct cells required a
// fresh test-loss evaluation.
func (s *Session) Misses() int { return int(s.misses.Load()) }

// Utility returns U_t(S) through the shared cache, recording the cell in
// this session's ledger on first request. When two session goroutines race
// on the same previously-unseen cell the hit/miss attribution of that one
// cell may go either way (the total Calls count is always exact); the
// pipelines request each distinct cell from one goroutine, so in practice
// the split is exact too.
func (s *Session) Utility(t int, set Set) float64 {
	if set.IsEmpty() {
		return 0
	}
	ck := cellKey{t: t, set: set.Key()}
	sh := &s.shards[ck.shard()]
	sh.mu.Lock()
	_, dup := sh.seen[ck]
	if !dup {
		sh.seen[ck] = struct{}{}
	}
	sh.mu.Unlock()
	v, computed := s.e.utility(t, set, ck)
	if !dup {
		s.distinct.Add(1)
		if computed {
			s.misses.Add(1)
		} else {
			s.hits.Add(1)
		}
	}
	return v
}

// UtilityBatchCtx evaluates the given cells concurrently through the
// shared cache, with this session's accounting. Semantics match
// Evaluator.UtilityBatchCtx.
func (s *Session) UtilityBatchCtx(ctx context.Context, cells []Cell, workers int) ([]float64, error) {
	out := make([]float64, len(cells))
	forEachIndex(ctx, len(cells), workers, func(i int) {
		out[i] = s.Utility(cells[i].Round, cells[i].Subset)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
