package utility

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// SnapshotCell is one memoized utility-matrix entry in durable wire form:
// the round, the coalition, and the evaluated value U_t(S). The coalition
// is carried as the raw bitmask for universes of at most 64 clients and as
// the lowercase-hex encoding of Set.Key's little-endian word bytes for
// larger ones — within one evaluator the universe is fixed, so a batch
// never mixes the two encodings.
type SnapshotCell struct {
	Round int     `json:"round"`
	Mask  uint64  `json:"mask,omitempty"`
	Key   string  `json:"key,omitempty"`
	Value float64 `json:"value"`
}

// CellBatch is a canonical batch of memoized cells — the unit the
// cell-cache sidecar appends and the one payload a remote worker ships
// back for an observation shard. Cells are strictly sorted by (round,
// coalition) and Digest is an FNV-1a content hash over coordinates and
// raw IEEE-754 value bits, so an import can verify a batch is exactly
// what its producer evaluated before trusting a byte of it.
type CellBatch struct {
	// N is the client universe size the cells were evaluated over; a
	// preload checks it against the evaluator's run so a mis-addressed
	// batch fails loudly.
	N      int            `json:"n"`
	Cells  []SnapshotCell `json:"cells"`
	Digest string         `json:"digest"`
}

// keyBytes returns the coalition identity bytes a cell contributes to the
// content digest: the mask as 8 little-endian bytes for small universes
// (identical to Set.Key of a one-word set) or the decoded key bytes
// otherwise. Invalid hex keys hash their raw string bytes — Verify still
// works (Stamp hashed the same bytes) and validation rejects the cell
// separately.
func (c *SnapshotCell) keyBytes(buf []byte) []byte {
	if c.Key == "" {
		buf = binary.LittleEndian.AppendUint64(buf[:0], c.Mask)
		return buf
	}
	raw, err := hex.DecodeString(c.Key)
	if err != nil {
		return []byte(c.Key)
	}
	return raw
}

// digest computes the canonical content hash over the batch's cells in
// their current order.
func (b *CellBatch) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	var kb []byte
	for i := range b.Cells {
		c := &b.Cells[i]
		binary.LittleEndian.PutUint64(buf[:], uint64(c.Round))
		h.Write(buf[:])
		kb = c.keyBytes(kb)
		h.Write(kb)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.Value))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cellLess orders cells canonically: by round, then by coalition (mask for
// small universes, key string otherwise — hex encoding preserves byte
// order, so the comparison is deterministic either way).
func cellLess(a, c *SnapshotCell) bool {
	if a.Round != c.Round {
		return a.Round < c.Round
	}
	if a.Mask != c.Mask {
		return a.Mask < c.Mask
	}
	return a.Key < c.Key
}

// NewCellBatch builds a stamped canonical batch over a universe of n
// clients from evaluated cells and their utilities (vals[i] is the value
// of cells[i]). The cells must be distinct and non-empty.
func NewCellBatch(n int, cells []Cell, vals []float64) *CellBatch {
	b := &CellBatch{N: n, Cells: make([]SnapshotCell, len(cells))}
	for i, c := range cells {
		mask, key := snapshotKey(cellKey{t: c.Round, set: c.Subset.cacheKey()})
		b.Cells[i] = SnapshotCell{Round: c.Round, Mask: mask, Key: key, Value: vals[i]}
	}
	b.Stamp()
	return b
}

// Stamp sorts the cells canonically and stamps the content digest — for
// producers and for tests that fabricate batches by hand.
func (b *CellBatch) Stamp() {
	sort.Slice(b.Cells, func(i, j int) bool { return cellLess(&b.Cells[i], &b.Cells[j]) })
	b.Digest = b.digest()
}

// Verify checks that the cells are in strict canonical order — each cell
// strictly after its predecessor, so no coalition repeats within a round —
// and that the recomputed content digest matches the stamped one,
// catching disk or wire corruption, duplicated or reordered cells, and
// tampering in one pass. The digest alone hashes cells in their given
// order, so it cannot tell a repeated or unsorted batch from a canonical
// one.
func (b *CellBatch) Verify() error {
	for i := 1; i < len(b.Cells); i++ {
		if !cellLess(&b.Cells[i-1], &b.Cells[i]) {
			return fmt.Errorf("utility: cell %d (round %d) is not strictly after cell %d in (round, coalition) order", i, b.Cells[i].Round, i-1)
		}
	}
	if got := b.digest(); got != b.Digest {
		return fmt.Errorf("utility: cell batch digest mismatch: recomputed %s, stamped %s", got, b.Digest)
	}
	return nil
}

// snapshotKey converts a memo-table key to its wire encoding.
func snapshotKey(ck cellKey) (mask uint64, key string) {
	if ck.set.str == "" {
		return ck.set.mask, ""
	}
	return 0, hex.EncodeToString([]byte(ck.set.str))
}

// cellKeyOf validates a wire cell against a universe of n clients and
// converts it back to the memo-table key. It rejects empty coalitions
// (never cached — the empty set's utility is 0 by convention), masks with
// bits beyond the universe, and keys of the wrong length or encoding.
func cellKeyOf(n int, c *SnapshotCell) (cellKey, error) {
	if n <= 64 {
		if c.Key != "" {
			return cellKey{}, fmt.Errorf("utility: cell carries an overflow key in a %d-client universe", n)
		}
		if c.Mask == 0 {
			return cellKey{}, fmt.Errorf("utility: cell for the empty coalition")
		}
		if n < 64 && c.Mask>>uint(n) != 0 {
			return cellKey{}, fmt.Errorf("utility: cell mask %#x exceeds universe %d", c.Mask, n)
		}
		return cellKey{t: c.Round, set: setKey{mask: c.Mask}}, nil
	}
	if c.Mask != 0 {
		return cellKey{}, fmt.Errorf("utility: cell carries a bitmask in a %d-client universe", n)
	}
	raw, err := hex.DecodeString(c.Key)
	if err != nil {
		return cellKey{}, fmt.Errorf("utility: bad cell key: %w", err)
	}
	if len(raw) != 8*((n+63)/64) {
		return cellKey{}, fmt.Errorf("utility: cell key is %d bytes, want %d for universe %d", len(raw), 8*((n+63)/64), n)
	}
	empty := true
	for _, by := range raw {
		if by != 0 {
			empty = false
			break
		}
	}
	if empty {
		return cellKey{}, fmt.Errorf("utility: cell for the empty coalition")
	}
	// Bits beyond the universe live in the last word; reject them so a
	// corrupted key cannot alias a valid coalition.
	if n%64 != 0 {
		last := binary.LittleEndian.Uint64(raw[len(raw)-8:])
		if last>>uint(n%64) != 0 {
			return cellKey{}, fmt.Errorf("utility: cell key has bits beyond universe %d", n)
		}
	}
	return cellKey{t: c.Round, set: setKey{str: string(raw)}}, nil
}
