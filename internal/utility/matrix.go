package utility

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"comfedsv/internal/fl"
	"comfedsv/internal/mat"
)

// Evaluator computes per-round subset utilities U_t(S) over a completed
// FedAvg run, memoizing results. Calls counts the number of *distinct*
// underlying test-loss evaluations, which is the cost model the paper uses
// in the time-complexity comparison (Section VII-D / Fig. 8).
//
// An Evaluator is safe for concurrent use and built for it: the memo table
// is sharded across evalShards lock stripes keyed by a hash of the cell, so
// a worker pool hammering the cache contends only on colliding stripes, and
// an in-flight table deduplicates concurrent first requests for the same
// cell — the expensive test-loss evaluation runs exactly once per distinct
// cell no matter how many goroutines race for it, making Calls an exact
// count of the Section VII-D cost model.
type Evaluator struct {
	run       *fl.Run
	calls     atomic.Int64
	hits      atomic.Int64
	preloaded atomic.Int64
	warmHits  atomic.Int64
	scratch   sync.Pool
	shards    [evalShards]evalShard
}

// evalShards is the number of lock stripes. 64 keeps the per-stripe maps
// small and the collision probability low for any realistic worker count;
// the array of that many mutex-guarded maps costs a few kilobytes.
const evalShards = 64

type evalShard struct {
	mu sync.Mutex
	// cache holds the cells this evaluator computed; warm holds the cells
	// Preload installed, so lookups served by a warm start are
	// attributable. The two are disjoint.
	cache    map[cellKey]float64
	warm     map[cellKey]float64
	inflight map[cellKey]chan struct{}
	// pending lists the cells this stripe evaluated (not preloaded) since
	// the last ExportNew drain — the delta the persistent cell cache
	// appends.
	pending []cellKey
}

// lookup returns a memoized cell's value and whether Preload installed
// it. The caller holds sh.mu. A lookup in an empty map returns before
// hashing, so an evaluator holding only one kind of cell pays one lookup
// per hit.
func (sh *evalShard) lookup(ck cellKey) (v float64, warm, ok bool) {
	if v, ok = sh.cache[ck]; ok {
		return v, false, true
	}
	v, ok = sh.warm[ck]
	return v, ok, ok
}

// evalScratch is the per-goroutine reusable state of one cache-miss
// evaluation: the member buffer and the fl aggregation scratch. Pooled so
// concurrent misses on different cells each get their own.
type evalScratch struct {
	members []int
	fl      fl.UtilityScratch
}

type cellKey struct {
	t   int
	set Key
}

// shard hashes the cell onto a lock stripe (FNV-style mixing over the
// round, the mask word, and any overflow string bytes).
func (ck cellKey) shard() uint64 {
	h := (uint64(ck.t)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 ^ ck.set.mask*0x94d049bb133111eb
	h ^= h >> 31
	for i := 0; i < len(ck.set.str); i++ {
		h = (h ^ uint64(ck.set.str[i])) * 1099511628211
	}
	return h % evalShards
}

// NewEvaluator wraps a completed run.
func NewEvaluator(run *fl.Run) *Evaluator {
	e := &Evaluator{run: run}
	e.scratch.New = func() any { return new(evalScratch) }
	for i := range e.shards {
		e.shards[i].cache = make(map[cellKey]float64)
		e.shards[i].inflight = make(map[cellKey]chan struct{})
	}
	return e
}

// Run returns the underlying federated run.
func (e *Evaluator) Run() *fl.Run { return e.run }

// Calls returns the number of distinct utility evaluations performed — the
// cache-miss count under the Section VII-D cost model.
func (e *Evaluator) Calls() int { return int(e.calls.Load()) }

// Hits returns the number of lookups served from the memo table (or by
// waiting on another goroutine's in-flight evaluation) instead of paying
// for a test-loss evaluation. Together with Calls it is the cache
// hit/miss ledger a shared evaluator exposes per training run.
func (e *Evaluator) Hits() int { return int(e.hits.Load()) }

// Preloaded returns the number of cells installed by Preload — memoized
// values inherited from a previous process or another worker rather than
// evaluated here.
func (e *Evaluator) Preloaded() int { return int(e.preloaded.Load()) }

// WarmHits returns the number of lookups served by preloaded cells — the
// evaluations a warm start actually avoided (each avoided test-loss call
// counts once per lookup, like Hits).
func (e *Evaluator) WarmHits() int { return int(e.warmHits.Load()) }

// Preload installs a batch of previously evaluated cells into the memo
// table without counting them as Calls, so a warm-started evaluator's
// distinct-evaluation ledger still reflects only the work this process
// performed. The batch's digest, universe, and every cell's coordinates
// are validated before anything is installed — a bad batch changes
// nothing and returns an error so the caller can quarantine its source.
// Cells already cached (evaluated or preloaded) or being evaluated are
// skipped; the count of newly installed cells is returned. Preloaded cells
// are never re-exported by ExportNew.
func (e *Evaluator) Preload(b *CellBatch) (int, error) {
	if b == nil || len(b.Cells) == 0 {
		return 0, nil
	}
	keys, err := e.batchKeys(b)
	if err != nil {
		return 0, err
	}
	added := 0
	for i, ck := range keys {
		sh := &e.shards[ck.shard()]
		sh.mu.Lock()
		// A cell being evaluated is skipped too: the evaluation installs
		// it, so every cell is counted once, as a call or as preloaded.
		if _, _, ok := sh.lookup(ck); !ok && sh.inflight[ck] == nil {
			if sh.warm == nil {
				sh.warm = make(map[cellKey]float64)
			}
			sh.warm[ck] = b.Cells[i].Value
			added++
		}
		sh.mu.Unlock()
	}
	e.preloaded.Add(int64(added))
	return added, nil
}

// batchKeys validates b against the run — its universe, its canonical
// order and digest, and every cell's round and coalition — and returns
// each cell's memo key. It is the one check Preload and Pay run before a
// batch touches the memo table or pays a cell.
func (e *Evaluator) batchKeys(b *CellBatch) ([]cellKey, error) {
	n := e.run.NumClients()
	if b.N != n {
		return nil, fmt.Errorf("utility: cell batch universe %d, run universe %d", b.N, n)
	}
	if err := b.Verify(); err != nil {
		return nil, err
	}
	rounds := len(e.run.Rounds)
	keys := make([]cellKey, len(b.Cells))
	for i := range b.Cells {
		c := &b.Cells[i]
		if c.Round < 0 || c.Round >= rounds {
			return nil, fmt.Errorf("utility: cell round %d outside run of %d rounds", c.Round, rounds)
		}
		ck, err := cellKeyOf(n, c)
		if err != nil {
			return nil, err
		}
		keys[i] = ck
	}
	return keys, nil
}

// Pay evaluates the cells a request batch names (its values are ignored)
// on at most workers goroutines and returns them as a stamped batch with
// exactly the request's coordinates — the worker half of a shard lease.
// The request is validated as Preload validates a batch, so a malformed
// one pays nothing. The result is NewCellBatch over the paid cells, the
// batch a local observation of the same cells builds, so its bytes and
// digest do not depend on which process paid.
func (e *Evaluator) Pay(ctx context.Context, req *CellBatch, workers int) (*CellBatch, error) {
	if req == nil {
		return nil, fmt.Errorf("utility: nil cell request")
	}
	keys, err := e.batchKeys(req)
	if err != nil {
		return nil, err
	}
	n := e.run.NumClients()
	cells := make([]Cell, len(keys))
	for i, ck := range keys {
		cells[i] = Cell{Round: ck.t, Subset: ck.set.set(n)}
	}
	vals, err := e.UtilityBatchCtx(ctx, cells, workers)
	if err != nil {
		return nil, err
	}
	return NewCellBatch(n, cells, vals), nil
}

// ExportNew drains and returns the cells evaluated since the last drain —
// misses this evaluator actually paid for, excluding preloaded ones — as
// a canonical stamped batch, or nil if nothing new was evaluated. It is
// the producer half of the persistent cell cache: the service flushes
// drains to the run's sidecar.
// Safe for concurrent use with evaluations; a cell evaluated concurrently
// with the drain lands in the next batch.
func (e *Evaluator) ExportNew() *CellBatch {
	n := e.run.NumClients()
	var cells []SnapshotCell
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, ck := range sh.pending {
			mask, key := snapshotKey(ck)
			cells = append(cells, SnapshotCell{Round: ck.t, Mask: mask, Key: key, Value: sh.cache[ck]})
		}
		sh.pending = nil
		sh.mu.Unlock()
	}
	if len(cells) == 0 {
		return nil
	}
	b := &CellBatch{N: n, Cells: cells}
	b.Stamp()
	return b
}

// Utility returns U_t(S). The empty coalition has utility 0 by convention.
func (e *Evaluator) Utility(t int, s Set) float64 {
	if s.IsEmpty() {
		return 0
	}
	v, _ := e.utility(t, s, cellKey{t: t, set: s.Key()})
	return v
}

// utility is the cache-aware core of Utility. It additionally reports
// whether this call performed the underlying test-loss evaluation (a cache
// miss) — the signal per-job Sessions use to split their lookup counts into
// hits and misses against the shared table. Callers pass the precomputed
// cellKey so Sessions can reuse it for their own bookkeeping.
func (e *Evaluator) utility(t int, s Set, ck cellKey) (float64, bool) {
	sh := &e.shards[ck.shard()]
	sh.mu.Lock()
	for {
		if v, warm, ok := sh.lookup(ck); ok {
			sh.mu.Unlock()
			if warm {
				e.warmHits.Add(1)
			}
			e.hits.Add(1)
			return v, false
		}
		done, ok := sh.inflight[ck]
		if !ok {
			break
		}
		// Another goroutine is evaluating this cell; wait for it rather
		// than duplicating the expensive test-loss call.
		sh.mu.Unlock()
		<-done
		sh.mu.Lock()
	}
	done := make(chan struct{})
	sh.inflight[ck] = done
	sh.mu.Unlock()

	// If the evaluation panics (it cannot for the cells the pipelines
	// produce, but a shared evaluator must not let one poisoned caller
	// strand every waiter), unregister the claim before unwinding.
	completed := false
	defer func() {
		if !completed {
			sh.mu.Lock()
			delete(sh.inflight, ck)
			sh.mu.Unlock()
			close(done)
		}
	}()
	sc := e.scratch.Get().(*evalScratch)
	sc.members = s.AppendMembers(sc.members[:0])
	v := e.run.UtilityInto(&sc.fl, t, sc.members)
	e.scratch.Put(sc)

	sh.mu.Lock()
	sh.cache[ck] = v
	sh.pending = append(sh.pending, ck)
	delete(sh.inflight, ck)
	sh.mu.Unlock()
	e.calls.Add(1)
	completed = true
	close(done)
	return v, true
}

// UtilityBatchCtx evaluates the given cells concurrently on a bounded
// worker pool sharing this evaluator's cache and returns the utilities in
// input order. workers ≤ 0 means GOMAXPROCS; the pool never exceeds the
// number of cells. Duplicate and already-cached cells cost one cache hit;
// concurrent first requests for the same cell are deduplicated by the
// in-flight table. Cancellation is checked before each evaluation.
func (e *Evaluator) UtilityBatchCtx(ctx context.Context, cells []Cell, workers int) ([]float64, error) {
	out := make([]float64, len(cells))
	forEachIndex(ctx, len(cells), workers, func(i int) {
		out[i] = e.Utility(cells[i].Round, cells[i].Subset)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Observation is one observed entry of the utility matrix, with its column
// resolved to a dense index by a Store.
type Observation struct {
	Row int     // training round t
	Col int     // column index assigned by the Store
	Val float64 // U_t(S)
}

// Store collects observed utility-matrix entries and assigns stable dense
// column indices to subsets, producing the sparse input of the reduced
// matrix-completion problem (13).
type Store struct {
	T       int
	n       int
	cols    map[Key]int
	colSets []Set
	obs     []Observation
	seen    map[cellKey]bool
}

// NewStore returns an empty store for a T-round run over n clients.
func NewStore(t, n int) *Store {
	return &Store{T: t, n: n, cols: make(map[Key]int), seen: make(map[cellKey]bool)}
}

// ColumnOf returns the dense column index for subset s, registering it on
// first use.
func (st *Store) ColumnOf(s Set) int {
	if s.Universe() != st.n {
		panic(fmt.Sprintf("utility: subset universe %d, store universe %d", s.Universe(), st.n))
	}
	k := s.Key()
	if c, ok := st.cols[k]; ok {
		return c
	}
	c := len(st.colSets)
	st.cols[k] = c
	st.colSets = append(st.colSets, s.Clone())
	return c
}

// ColumnSet returns the subset of the given column index.
func (st *Store) ColumnSet(col int) Set { return st.colSets[col] }

// NumColumns returns how many distinct subsets have been registered.
func (st *Store) NumColumns() int { return len(st.colSets) }

// Observe records U_{t,S} = val. Duplicate (t,S) pairs are ignored (the
// first value wins; the evaluator is deterministic so they are equal).
func (st *Store) Observe(t int, s Set, val float64) {
	if t < 0 || t >= st.T {
		panic(fmt.Sprintf("utility: round %d out of [0,%d)", t, st.T))
	}
	ck := cellKey{t: t, set: s.Key()}
	if st.seen[ck] {
		return
	}
	st.seen[ck] = true
	st.obs = append(st.obs, Observation{Row: t, Col: st.ColumnOf(s), Val: val})
}

// Observations returns the recorded entries (shared slice; do not mutate).
func (st *Store) Observations() []Observation { return st.obs }

// Density returns the fraction of the T×NumColumns grid that is observed.
func (st *Store) Density() float64 {
	total := st.T * st.NumColumns()
	if total == 0 {
		return 0
	}
	return float64(len(st.obs)) / float64(total)
}

// FullMatrix materializes the complete utility matrix U ∈ R^{T×2^N} for a
// small-N run (N ≤ 20), paying every nonempty subset in every round through
// the source's batch path — one batch per round, on at most workers
// goroutines (≤ 0 means GOMAXPROCS). Column index is the subset bitmask;
// column 0 (empty set) is all zeros. This is the ground-truth object of
// Example 2 / Fig. 2 and of the paper's "ground-truth" baseline metric.
func FullMatrix(e Source, workers int) *mat.Dense {
	n := e.Run().NumClients()
	if n > 20 {
		panic(fmt.Sprintf("utility: full matrix for %d clients is infeasible", n))
	}
	t := len(e.Run().Rounds)
	cols := 1 << uint(n)
	u := mat.NewDense(t, cols)
	cells := make([]Cell, cols-1)
	for i := range cells {
		cells[i].Subset = FromMask(n, uint64(i+1))
	}
	for round := 0; round < t; round++ {
		for i := range cells {
			cells[i].Round = round
		}
		// The background context never cancels, so the batch cannot fail.
		vals, _ := e.UtilityBatchCtx(context.Background(), cells, workers)
		copy(u.Row(round)[1:], vals)
	}
	return u
}

// SelectedCells lists the exact observation region {U_{t,S} : S ⊆ I_t} of
// problem (9) — every nonempty subset of every round's selection — round by
// round, each round's subsets in mask order over the positions in Selected
// (bit b of the mask selects Selected[b]). It is the one enumeration both
// exact FedSV and the exact ComFedSV observation pay. A round selecting more
// than 20 clients makes the region infeasible to list.
func SelectedCells(run *fl.Run) ([]Cell, error) {
	total := 0
	for _, rd := range run.Rounds {
		k := len(rd.Selected)
		if k > 20 {
			return nil, fmt.Errorf("utility: 2^%d subsets per round is infeasible", k)
		}
		total += 1<<uint(k) - 1
	}
	n := run.NumClients()
	cells := make([]Cell, 0, total)
	for t, rd := range run.Rounds {
		for mask := uint64(1); mask < 1<<uint(len(rd.Selected)); mask++ {
			s := NewSet(n)
			for b, client := range rd.Selected {
				if mask&(1<<uint(b)) != 0 {
					s.Add(client)
				}
			}
			cells = append(cells, Cell{Round: t, Subset: s})
		}
	}
	return cells, nil
}
