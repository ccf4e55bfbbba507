package shapley

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// shardDigest hashes one observation shard's evaluated cells into a short
// hex token. The walk order is canonical — cells sorted by (round, col),
// each contributing its coordinates and the raw IEEE-754 bits of its
// value — so the digest is a pure function of the shard's observation
// *content*, independent of map iteration order or evaluation timing.
//
// The comfedsvd journal records this digest when a shard completes; crash
// recovery re-executes the shard (observation is a deterministic function
// of the journaled request) and verifies the re-derived cells hash
// identically, turning any determinism violation into a loud failure
// instead of a silently different report.
func shardDigest(vals map[obsCell]float64) string {
	if vals == nil {
		return ""
	}
	keys := make([]obsCell, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].round != keys[j].round {
			return keys[i].round < keys[j].round
		}
		return keys[i].col < keys[j].col
	})
	h := fnv.New64a()
	var buf [24]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(k.round))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(k.col))
		binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(vals[k]))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ShardDigest returns the content hash of an observed shard's evaluated
// cells, or "" if the shard has not been observed yet.
func (p *MonteCarloPlan) ShardDigest(shard int) string {
	if shard < 0 || shard >= len(p.shardVals) {
		return ""
	}
	return shardDigest(p.shardVals[shard])
}
