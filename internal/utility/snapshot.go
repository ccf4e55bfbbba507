package utility

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
)

// SnapshotCell is one memoized utility-matrix entry: the round, the
// coalition, and the evaluated value U_t(S). The coalition is carried as
// the raw bitmask for universes of at most 64 clients and as the
// lowercase-hex encoding of Set.Key's little-endian word bytes for larger
// ones — within one evaluator the universe is fixed, so a batch never
// mixes the two encodings. The JSON tags are the cell objects of a
// format-1 batch, which CellBatch still reads.
type SnapshotCell struct {
	Round int     `json:"round"`
	Mask  uint64  `json:"mask,omitempty"`
	Key   string  `json:"key,omitempty"`
	Value float64 `json:"value"`
}

// CellBatch is a canonical batch of memoized cells — the unit the
// cell-cache sidecar appends, the cell list a shard lease carries to a
// remote worker (values zero; Evaluator.Pay reads only the coordinates),
// and the one payload the worker ships back for it. Cells are strictly
// sorted by (round, coalition) and Digest is an FNV-1a content hash over
// coordinates and raw IEEE-754 value bits, so an import can verify a
// batch is exactly what its producer evaluated before trusting a byte of
// it.
//
// Its JSON form (format 2) is {"n","cells","digest"}, where cells is one
// string of standard base64 over fixed-width little-endian records: the
// round as 8 bytes, the coalition's words (the mask for n ≤ 64, Set.Key's
// bytes otherwise), then the value's IEEE-754 bits. A record is exactly
// what the digest hashes for its cell. The decoder also reads format 1,
// where cells is an array of SnapshotCell objects; it rejects unknown
// fields in either.
type CellBatch struct {
	// N is the client universe size the cells were evaluated over; a
	// preload checks it against the evaluator's run so a mis-addressed
	// batch fails loudly.
	N      int
	Cells  []SnapshotCell
	Digest string
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
		mask, key := snapshotKey(cellKey{t: c.Round, set: c.Subset.Key()})
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
// converts it back to the memo-table key. Beyond the encoding checks of
// appendCoalition it rejects empty coalitions (never cached — the empty
// set's utility is 0 by convention) and bits beyond the universe, so a
// corrupted coalition cannot alias a valid one.
func cellKeyOf(n int, c *SnapshotCell) (cellKey, error) {
	var buf [8]byte
	raw, err := appendCoalition(buf[:0], n, c)
	if err != nil {
		return cellKey{}, err
	}
	// Bits beyond the universe live in the last word.
	last := binary.LittleEndian.Uint64(raw[len(raw)-8:])
	if used := n % 64; (used != 0 || n == 0) && last>>uint(used) != 0 {
		return cellKey{}, fmt.Errorf("utility: cell coalition has bits beyond universe %d", n)
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
	if n <= 64 {
		return cellKey{t: c.Round, set: Key{mask: c.Mask}}, nil
	}
	return cellKey{t: c.Round, set: Key{str: string(raw)}}, nil
}

// cellEncoding is the base64 alphabet of a cell block. Strict decoding
// admits one spelling per record sequence.
var cellEncoding = base64.StdEncoding.Strict()

// coalitionWords is the number of 64-bit coalition words a record of a
// universe of n clients carries: the mask for n ≤ 64, Set.Key's words
// otherwise.
func coalitionWords(n int) int {
	if n <= 64 {
		return 1
	}
	return n/64 + min(n%64, 1)
}

// appendCoalition appends the record bytes of c's coalition in a universe
// of n clients: the mask, or the key's bytes. It rejects a cell whose
// coalition is not in the encoding of its universe (a key for n ≤ 64; a
// mask, or anything but lowercase hex of the universe's width, above), so
// every batch that encodes decodes back to the same cells.
func appendCoalition(buf []byte, n int, c *SnapshotCell) ([]byte, error) {
	if n <= 64 {
		if c.Key != "" {
			return nil, fmt.Errorf("utility: cell carries an overflow key in a %d-client universe", n)
		}
		return binary.LittleEndian.AppendUint64(buf, c.Mask), nil
	}
	if c.Mask != 0 {
		return nil, fmt.Errorf("utility: cell carries a bitmask in a %d-client universe", n)
	}
	if len(c.Key) != 16*coalitionWords(n) {
		return nil, fmt.Errorf("utility: cell key is %d hex digits, want %d for universe %d", len(c.Key), 16*coalitionWords(n), n)
	}
	for i := 0; i < len(c.Key); i++ {
		if ch := c.Key[i]; (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return nil, fmt.Errorf("utility: cell key is not lowercase hex")
		}
	}
	return hex.AppendDecode(buf, []byte(c.Key))
}

// MarshalJSON writes the batch in format 2, its cells as one base64 block.
// It rejects a cell whose coalition is not in the encoding of the batch's
// universe and a non-finite value, which format 1 could not carry either.
func (b CellBatch) MarshalJSON() ([]byte, error) {
	block := make([]byte, 0, 24*len(b.Cells)) // the width of a mask record
	for i := range b.Cells {
		c := &b.Cells[i]
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return nil, fmt.Errorf("utility: cell %d has non-finite value %v", i, c.Value)
		}
		block = binary.LittleEndian.AppendUint64(block, uint64(c.Round))
		var err error
		if block, err = appendCoalition(block, b.N, c); err != nil {
			return nil, err
		}
		block = binary.LittleEndian.AppendUint64(block, math.Float64bits(c.Value))
	}
	digest, err := json.Marshal(b.Digest)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 32+cellEncoding.EncodedLen(len(block))+len(digest))
	out = append(out, `{"n":`...)
	out = strconv.AppendInt(out, int64(b.N), 10)
	out = append(out, `,"cells":"`...)
	out = cellEncoding.AppendEncode(out, block)
	out = append(out, `","digest":`...)
	out = append(out, digest...)
	return append(out, '}'), nil
}

// UnmarshalJSON reads a batch of either format. A format-2 block must be
// strict base64 without escapes, hold whole records and only finite
// values; a format-1 cell must encode its coalition as its universe
// requires. Unknown fields are rejected in both.
func (b *CellBatch) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var w struct {
		N      int             `json:"n"`
		Cells  json.RawMessage `json:"cells"`
		Digest string          `json:"digest"`
	}
	if err := strictUnmarshal(data, &w); err != nil {
		return err
	}
	var cells []SnapshotCell
	switch {
	case len(w.Cells) > 0 && w.Cells[0] == '"':
		var err error
		if cells, err = decodeCellBlock(w.N, w.Cells[1:len(w.Cells)-1]); err != nil {
			return err
		}
	case len(w.Cells) > 0 && w.Cells[0] == '[':
		if err := strictUnmarshal(w.Cells, &cells); err != nil {
			return err
		}
		var buf [8]byte
		for i := range cells {
			if _, err := appendCoalition(buf[:0], w.N, &cells[i]); err != nil {
				return err
			}
		}
	case len(w.Cells) > 0 && string(w.Cells) != "null":
		return fmt.Errorf("utility: cells are neither a block nor an array")
	}
	*b = CellBatch{N: w.N, Cells: cells, Digest: w.Digest}
	return nil
}

// strictUnmarshal decodes data, one JSON value, rejecting unknown fields
// and anything but whitespace after the value.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("utility: data after the cell batch")
	}
	return nil
}

// decodeCellBlock decodes the records of a format-2 block over a universe
// of n clients.
func decodeCellBlock(n int, s []byte) ([]SnapshotCell, error) {
	raw := make([]byte, cellEncoding.DecodedLen(len(s)))
	m, err := cellEncoding.Decode(raw, s)
	if err != nil {
		return nil, fmt.Errorf("utility: cell block: %w", err)
	}
	words := coalitionWords(n)
	width := 8 * (2 + words)
	if m%width != 0 {
		return nil, fmt.Errorf("utility: cell block of %d bytes is not whole %d-byte records", m, width)
	}
	if m == 0 {
		return nil, nil
	}
	cells := make([]SnapshotCell, m/width)
	for i := range cells {
		rec := raw[i*width : (i+1)*width]
		c := &cells[i]
		c.Round = int(int64(binary.LittleEndian.Uint64(rec)))
		if n <= 64 {
			c.Mask = binary.LittleEndian.Uint64(rec[8:])
		} else {
			c.Key = hex.EncodeToString(rec[8 : width-8])
		}
		c.Value = math.Float64frombits(binary.LittleEndian.Uint64(rec[width-8:]))
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return nil, fmt.Errorf("utility: cell %d has non-finite value %v", i, c.Value)
		}
	}
	return cells, nil
}
