package shapley

import (
	"context"
	"fmt"
	"sort"
)

// ObservedCell is one evaluated utility-matrix entry in wire form: the
// round, the plan's dense prefix-column index, and the utility value. The
// column index is meaningful only between two plans built from the same
// (trace, budget, seed) — registration order is deterministic, so a worker
// that rebuilt the plan from the shared run derives identical indices.
type ObservedCell struct {
	Round int     `json:"round"`
	Col   int     `json:"col"`
	Value float64 `json:"value"`
}

// ShardObservations is the serialized result of one observation shard —
// the payload a remote worker ships back to the comfedsvd coordinator.
// Cells are canonically ordered (round, then column) and Digest is the
// same content hash ShardDigest computes for a locally executed shard, so
// the coordinator can verify a remote execution derived byte-identical
// observations before merging them.
type ShardObservations struct {
	// Lo and Hi echo the half-open permutation slice the cells were
	// derived from; an import checks them against the shard's planned
	// slice so a mis-addressed result fails loudly.
	Lo    int            `json:"lo"`
	Hi    int            `json:"hi"`
	Cells []ObservedCell `json:"cells"`
	// Digest is the content hash over Cells (coordinates + IEEE-754 value
	// bits in canonical order) — the same token the journal records.
	Digest string `json:"digest"`
}

// exportObservations converts a shard's evaluated-cell map to the
// canonical wire form, stamping the content digest.
func exportObservations(lo, hi int, vals map[obsCell]float64) *ShardObservations {
	cells := make([]ObservedCell, 0, len(vals))
	for k, v := range vals {
		cells = append(cells, ObservedCell{Round: k.round, Col: k.col, Value: v})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Round != cells[j].Round {
			return cells[i].Round < cells[j].Round
		}
		return cells[i].Col < cells[j].Col
	})
	return &ShardObservations{Lo: lo, Hi: hi, Cells: cells, Digest: shardDigest(vals)}
}

// toMap rebuilds the evaluated-cell map. It keeps the last value of a
// repeated coordinate, so Verify rejects repeats before an import relies
// on it.
func (o *ShardObservations) toMap() map[obsCell]float64 {
	vals := make(map[obsCell]float64, len(o.Cells))
	for _, c := range o.Cells {
		vals[obsCell{round: c.Round, col: c.Col}] = c.Value
	}
	return vals
}

// Stamp recomputes the content digest from the cells and stamps it,
// making a hand-constructed ShardObservations with canonically ordered
// cells pass Verify — for tests and tooling that fabricate wire payloads;
// plan exports stamp their digests during export.
func (o *ShardObservations) Stamp() { o.Digest = shardDigest(o.toMap()) }

// Verify checks that the cells are in strict canonical order — each
// (round, col) strictly after its predecessor, so no coordinate repeats —
// and that the recomputed content digest matches the stamped one,
// catching wire corruption, duplicated or reordered cells, and tampering
// in one pass.
func (o *ShardObservations) Verify() error {
	for i := 1; i < len(o.Cells); i++ {
		a, b := o.Cells[i-1], o.Cells[i]
		if b.Round < a.Round || (b.Round == a.Round && b.Col <= a.Col) {
			return fmt.Errorf("shapley: shard observation cell %d (%d,%d) is not strictly after (%d,%d)", i, b.Round, b.Col, a.Round, a.Col)
		}
	}
	if got := shardDigest(o.toMap()); got != o.Digest {
		return fmt.Errorf("shapley: shard observations digest mismatch: recomputed %s, stamped %s", got, o.Digest)
	}
	return nil
}

// Budget returns the permutation budget the plan sampled — what a remote
// worker must pass to its own plan so column registration matches.
func (p *MonteCarloPlan) Budget() int { return len(p.perms) }

// ShardSlice returns the half-open permutation slice [lo, hi) owned by a
// scheduled shard — the coordinates a lease ships to a remote worker. A
// shard index the plan has not scheduled panics.
func (p *MonteCarloPlan) ShardSlice(shard int) (lo, hi int) {
	if shard < 0 || shard >= len(p.slices) {
		panic(fmt.Sprintf("shapley: observation shard %d out of [0,%d)", shard, len(p.slices)))
	}
	sl := p.slices[shard]
	return sl.lo, sl.hi
}

// ObserveSlice evaluates the prefix cells of an arbitrary permutation
// slice [lo, hi) and returns them in wire form, without mutating the
// plan's shard state — the worker-side entry point of distributed
// observation. The slice need not align with the plan's own shard
// boundaries, so one worker-side plan serves every lease of a job
// regardless of how the coordinator cut its waves.
func (p *MonteCarloPlan) ObserveSlice(ctx context.Context, lo, hi int) (*ShardObservations, error) {
	if lo < 0 || hi > len(p.perms) || lo >= hi {
		return nil, fmt.Errorf("shapley: observation slice [%d,%d) out of [0,%d)", lo, hi, len(p.perms))
	}
	vals, err := p.observeRange(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	return exportObservations(lo, hi, vals), nil
}

// ImportShard installs a remotely evaluated shard's observations as if
// ObserveShard had run locally: the slice coordinates must match the
// shard's planned range, every cell must lie inside the plan's
// dimensions, and the content digest must verify. After a successful
// import, ShardDigest(shard) returns the imported digest and Advance
// consumes the cells exactly as it would local ones.
func (p *MonteCarloPlan) ImportShard(shard int, obs *ShardObservations) error {
	lo, hi := p.ShardSlice(shard)
	if obs == nil {
		return fmt.Errorf("shapley: nil shard observations")
	}
	if obs.Lo != lo || obs.Hi != hi {
		return fmt.Errorf("shapley: shard observations cover permutations [%d,%d) but the planned slice is [%d,%d)", obs.Lo, obs.Hi, lo, hi)
	}
	cols := p.store.NumColumns()
	for _, c := range obs.Cells {
		if c.Round < 0 || c.Round >= p.t || c.Col < 0 || c.Col >= cols {
			return fmt.Errorf("shapley: shard observation cell (%d,%d) outside plan dimensions %d×%d", c.Round, c.Col, p.t, cols)
		}
	}
	if err := obs.Verify(); err != nil {
		return err
	}
	p.shardVals[shard] = obs.toMap()
	return nil
}
