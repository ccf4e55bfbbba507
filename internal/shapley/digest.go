package shapley

import (
	"context"

	"comfedsv/internal/utility"
)

// observedShard is one observation shard's paid cells: their values in
// the order the shard paid them and the canonical cell batch over them —
// the same batch a remote worker returns for the shard, so the shard's
// digest is the batch's digest.
//
// The comfedsvd journal records that digest when a shard completes; crash
// recovery re-executes the shard (observation is a deterministic function
// of the journaled request) and verifies the re-derived cells hash
// identically, turning any determinism violation into a loud failure
// instead of a silently different report.
type observedShard struct {
	// keys are the cells' (round, column) coordinates, in first-visit
	// order — Monte-Carlo shards only; an exact shard's cells are the
	// plan's cell list for that shard.
	keys  []obsCell
	vals  []float64
	batch *utility.CellBatch
}

// payShard evaluates cells through src on workers goroutines and returns
// them as an observed shard.
func payShard(ctx context.Context, src utility.Source, cells []utility.Cell, workers int) (*observedShard, error) {
	vals, err := src.UtilityBatchCtx(ctx, cells, workers)
	if err != nil {
		return nil, err
	}
	return &observedShard{vals: vals, batch: utility.NewCellBatch(src.Run().NumClients(), cells, vals)}, nil
}

// observedShards holds a plan's observed shards by shard index, nil until
// the shard is observed.
type observedShards []*observedShard

// ShardDigest returns the digest of an observed shard's cell batch, or ""
// if the shard has not been observed yet.
func (o observedShards) ShardDigest(shard int) string {
	if shard < 0 || shard >= len(o) || o[shard] == nil {
		return ""
	}
	return o[shard].batch.Digest
}
