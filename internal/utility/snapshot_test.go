package utility

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/rng"
)

func TestCellBatchStampVerify(t *testing.T) {
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 1, Mask: 0b101, Value: 0.25},
		{Round: 0, Mask: 0b11, Value: -0.5},
		{Round: 1, Mask: 0b10, Value: 1.75},
	}}
	b.Stamp()
	if err := b.Verify(); err != nil {
		t.Fatalf("freshly stamped batch must verify: %v", err)
	}
	// Canonical order: (round, mask).
	want := []struct {
		round int
		mask  uint64
	}{{0, 0b11}, {1, 0b10}, {1, 0b101}}
	for i, w := range want {
		if b.Cells[i].Round != w.round || b.Cells[i].Mask != w.mask {
			t.Fatalf("cell %d = (%d,%#x), want (%d,%#x)", i, b.Cells[i].Round, b.Cells[i].Mask, w.round, w.mask)
		}
	}
	// Stamping is idempotent.
	d := b.Digest
	b.Stamp()
	if b.Digest != d {
		t.Fatal("restamping a canonical batch changed the digest")
	}
}

func TestCellBatchVerifyCatchesTampering(t *testing.T) {
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 0, Mask: 0b1, Value: 1},
		{Round: 0, Mask: 0b10, Value: 2},
	}}
	b.Stamp()
	mutations := []func(*CellBatch){
		func(b *CellBatch) { b.Cells[0].Value = 3 },
		func(b *CellBatch) { b.Cells[1].Round = 5 },
		func(b *CellBatch) { b.Cells[0].Mask = 0b100 },
		func(b *CellBatch) { b.Cells[0], b.Cells[1] = b.Cells[1], b.Cells[0] },
		func(b *CellBatch) { b.Digest = strings.Repeat("0", 16) },
	}
	for i, mutate := range mutations {
		c := &CellBatch{N: b.N, Cells: append([]SnapshotCell(nil), b.Cells...), Digest: b.Digest}
		mutate(c)
		if err := c.Verify(); err == nil {
			t.Fatalf("mutation %d went undetected", i)
		}
	}
}

func TestExportPreloadRoundTrip(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	src := NewEvaluator(run)
	sets := []Set{
		FromMembers(4, []int{0}),
		FromMembers(4, []int{1, 3}),
		FromMembers(4, []int{0, 1, 2, 3}),
	}
	want := make(map[int][]float64, len(run.Rounds))
	for ti := range run.Rounds {
		for _, s := range sets {
			want[ti] = append(want[ti], src.Utility(ti, s))
		}
	}
	batch := src.ExportNew()
	if batch == nil {
		t.Fatal("ExportNew returned nil after fresh evaluations")
	}
	if got, wantN := len(batch.Cells), len(sets)*len(run.Rounds); got != wantN {
		t.Fatalf("exported %d cells, want %d", got, wantN)
	}
	if err := batch.Verify(); err != nil {
		t.Fatalf("exported batch does not verify: %v", err)
	}
	// Drained cells are not exported again.
	if again := src.ExportNew(); again != nil {
		t.Fatalf("second ExportNew re-exported %d cells, want nil", len(again.Cells))
	}

	dst := NewEvaluator(run)
	added, err := dst.Preload(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(batch.Cells) {
		t.Fatalf("preload added %d cells, want %d", added, len(batch.Cells))
	}
	if dst.Preloaded() != added {
		t.Fatalf("Preloaded() = %d, want %d", dst.Preloaded(), added)
	}
	for ti := range run.Rounds {
		for si, s := range sets {
			if got := dst.Utility(ti, s); got != want[ti][si] {
				t.Fatalf("round %d set %d: warm value %v != cold value %v (must be bit-identical)", ti, si, got, want[ti][si])
			}
		}
	}
	if dst.Calls() != 0 {
		t.Fatalf("warm evaluator paid %d calls, want 0", dst.Calls())
	}
	if got, wantN := dst.WarmHits(), len(sets)*len(run.Rounds); got != wantN {
		t.Fatalf("WarmHits = %d, want %d", got, wantN)
	}
	// Preloaded cells never count as new work: nothing to re-export.
	if exp := dst.ExportNew(); exp != nil {
		t.Fatalf("warm evaluator re-exported %d preloaded cells, want nil", len(exp.Cells))
	}
}

func TestPreloadIdempotentAndPartial(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	src := NewEvaluator(run)
	a := FromMembers(4, []int{0, 1})
	bSet := FromMembers(4, []int{2, 3})
	src.Utility(0, a)
	src.Utility(0, bSet)
	batch := src.ExportNew()

	dst := NewEvaluator(run)
	dst.Utility(0, a) // dst already knows one of the two cells
	added, err := dst.Preload(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("preload over a half-warm evaluator added %d, want 1", added)
	}
	// Preloading the same batch again adds nothing.
	added, err = dst.Preload(batch)
	if err != nil || added != 0 {
		t.Fatalf("re-preload added %d, err %v; want 0, nil", added, err)
	}
}

func TestPreloadRejectsBadBatches(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	good := func() *CellBatch {
		b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 0b11, Value: 0.5}}}
		b.Stamp()
		return b
	}
	cases := []struct {
		name  string
		batch *CellBatch
	}{
		{"wrong-universe", func() *CellBatch { b := good(); b.N = 5; b.Stamp(); return b }()},
		{"bad-digest", func() *CellBatch { b := good(); b.Digest = "dead"; return b }()},
		{"out-of-range-round", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 99, Mask: 0b1, Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"empty-coalition", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 0, Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"mask-beyond-universe", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 1 << 10, Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"overflow-key-in-small-universe", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Key: "0100000000000000", Value: 1}}}
			b.Stamp()
			return b
		}()},
	}
	for _, tc := range cases {
		e := NewEvaluator(run)
		added, err := e.Preload(tc.batch)
		if err == nil {
			t.Fatalf("%s: preload accepted a bad batch", tc.name)
		}
		if added != 0 || e.Preloaded() != 0 {
			t.Fatalf("%s: rejected batch still installed cells (added %d, preloaded %d)", tc.name, added, e.Preloaded())
		}
	}
	// No coalition but the empty one exists in a universe of no clients.
	empty := &fl.Run{Rounds: make([]fl.Round, 2)}
	for _, mask := range []uint64{1, 1 << 63} {
		b := &CellBatch{N: 0, Cells: []SnapshotCell{{Round: 0, Mask: mask, Value: 1}}}
		b.Stamp()
		if added, err := NewEvaluator(empty).Preload(b); err == nil {
			t.Fatalf("mask %#x in an empty universe: preload added %d cells", mask, added)
		}
	}
}

// TestPreloadAtomicOnMixedBatch pins the all-or-nothing contract: a batch
// with one invalid cell among valid ones installs nothing.
func TestPreloadAtomicOnMixedBatch(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 0, Mask: 0b1, Value: 0.5},
		{Round: 0, Mask: 0, Value: 0.25}, // invalid: empty coalition
		{Round: 1, Mask: 0b11, Value: 0.125},
	}}
	b.Stamp()
	e := NewEvaluator(run)
	if _, err := e.Preload(b); err == nil {
		t.Fatal("mixed batch must be rejected")
	}
	if e.Preloaded() != 0 {
		t.Fatalf("mixed batch installed %d cells, want 0", e.Preloaded())
	}
	// The evaluator still works cold after the rejection.
	e.Utility(0, FromMembers(4, []int{0}))
	if e.Calls() != 1 {
		t.Fatalf("post-rejection evaluation paid %d calls, want 1", e.Calls())
	}
}

func TestPreloadNilAndEmpty(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	e := NewEvaluator(run)
	if added, err := e.Preload(nil); added != 0 || err != nil {
		t.Fatalf("Preload(nil) = (%d, %v), want (0, nil)", added, err)
	}
	empty := &CellBatch{N: 4}
	empty.Stamp()
	if added, err := e.Preload(empty); added != 0 || err != nil {
		t.Fatalf("Preload(empty) = (%d, %v), want (0, nil)", added, err)
	}
	if e.ExportNew() != nil {
		t.Fatal("empty evaluator exported a batch")
	}
}

// TestCellBatchVerifyRejectsNonCanonicalCells pins the order contract a
// batch must meet: cells strictly ascending in (round, mask, key). The
// digest hashes cells in their given order, so without the order check a
// duplicated, conflicting, or unsorted batch stamped over its own order
// would verify.
func TestCellBatchVerifyRejectsNonCanonicalCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		cells []SnapshotCell
		bad   bool
	}{
		{"canonical", 4, []SnapshotCell{{Round: 0, Mask: 1, Value: 0.5}, {Round: 0, Mask: 2, Value: 0.25}, {Round: 1, Mask: 1, Value: 0.75}}, false},
		{"canonical keys", 70, []SnapshotCell{{Round: 0, Key: strings.Repeat("00", 15) + "01", Value: 0.5}, {Round: 0, Key: strings.Repeat("00", 15) + "02", Value: 0.25}}, false},
		{"exact duplicate", 4, []SnapshotCell{{Round: 0, Mask: 1, Value: 0.5}, {Round: 0, Mask: 1, Value: 0.5}}, true},
		{"conflicting duplicate", 4, []SnapshotCell{{Round: 0, Mask: 1, Value: 0.5}, {Round: 0, Mask: 1, Value: 0.7}}, true},
		{"unsorted", 4, []SnapshotCell{{Round: 1, Mask: 1, Value: 0.75}, {Round: 0, Mask: 2, Value: 0.5}}, true},
		{"unsorted masks", 4, []SnapshotCell{{Round: 0, Mask: 2, Value: 0.75}, {Round: 0, Mask: 1, Value: 0.5}}, true},
		{"duplicate key", 70, []SnapshotCell{{Round: 0, Key: strings.Repeat("00", 15) + "01", Value: 0.5}, {Round: 0, Key: strings.Repeat("00", 15) + "01", Value: 0.5}}, true},
	} {
		b := &CellBatch{N: tc.n, Cells: tc.cells}
		b.Digest = b.digest() // stamped over the given order, unsorted
		err := b.Verify()
		if tc.bad && (err == nil || !strings.Contains(err.Error(), "not strictly after")) {
			t.Errorf("%s: Verify = %v, want an ordering error", tc.name, err)
		}
		if !tc.bad && err != nil {
			t.Errorf("%s: Verify = %v, want nil", tc.name, err)
		}
	}
}

// TestNewCellBatch pins the worker-side constructor: cells given in any
// order come back canonical, stamped, and round-trip through Preload into
// exactly the evaluated values, in both the mask and the hex-key encoding.
func TestNewCellBatch(t *testing.T) {
	for _, n := range []int{4, 70} {
		run := &fl.Run{Clients: make([]*dataset.Dataset, n), Rounds: make([]fl.Round, 2)}
		cells := []Cell{
			{Round: 1, Subset: FromMembers(n, []int{0, 2})},
			{Round: 0, Subset: FromMembers(n, []int{3})},
			{Round: 1, Subset: FromMembers(n, []int{1})},
		}
		vals := []float64{0.25, -1.5, 0.125}
		b := NewCellBatch(n, cells, vals)
		if err := b.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b.N != n || len(b.Cells) != len(cells) || b.Cells[0].Round != 0 {
			t.Fatalf("n=%d: batch %+v is not the canonical form of the cells", n, b)
		}
		e := NewEvaluator(run)
		if added, err := e.Preload(b); err != nil || added != len(cells) {
			t.Fatalf("n=%d: Preload = (%d, %v), want (%d, nil)", n, added, err, len(cells))
		}
		for i, c := range cells {
			if got := e.Utility(c.Round, c.Subset); got != vals[i] {
				t.Fatalf("n=%d: cell %d preloaded as %v, want %v", n, i, got, vals[i])
			}
		}
		if e.Calls() != 0 {
			t.Fatalf("n=%d: preloaded lookups paid %d evaluations", n, e.Calls())
		}
	}
}

// sameBatch reports whether a and b carry the same universe, digest and
// cells, values compared by their bits.
func sameBatch(a, b *CellBatch) bool {
	if a.N != b.N || a.Digest != b.Digest || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		x, y := a.Cells[i], b.Cells[i]
		if x.Round != y.Round || x.Mask != y.Mask || x.Key != y.Key || math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
	}
	return true
}

// marshalV1 is the format-1 encoding of a batch: its cells as objects.
func marshalV1(t testing.TB, b *CellBatch) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		N      int            `json:"n"`
		Cells  []SnapshotCell `json:"cells"`
		Digest string         `json:"digest"`
	}{b.N, b.Cells, b.Digest})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCellBatchJSONRoundTrip requires that a batch written as a format-2
// block, and as format 1, decodes to every cell bit for bit with its
// digest, across mask and key universes and extreme values.
func TestCellBatchJSONRoundTrip(t *testing.T) {
	values := []float64{0.5, -1.0 / 3, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e-300}
	var batches []*CellBatch
	for _, n := range []int{1, 4, 63, 64, 65, 70, 128, 130} {
		var cells []Cell
		var vals []float64
		for r := 0; r < 3; r++ {
			for i, v := range values {
				s := FromMembers(n, []int{(i * 7) % n, (r + i*13) % n, n - 1})
				cells = append(cells, Cell{Round: r, Subset: s})
				vals = append(vals, v+float64(r))
			}
		}
		// FromMembers repeats coalitions across values; keep one of each.
		seen := map[string]bool{}
		var uc []Cell
		var uv []float64
		for i, c := range cells {
			k := fmt.Sprint(c.Round, c.Subset.Key())
			if !seen[k] {
				seen[k] = true
				uc, uv = append(uc, c), append(uv, vals[i])
			}
		}
		batches = append(batches, NewCellBatch(n, uc, uv))
	}
	// Verify is the preload's check, not the codec's: a batch that fails
	// it still round-trips.
	odd := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: -1, Mask: 0, Value: 2}, {Round: 1 << 40, Mask: math.MaxUint64, Value: -0.0}}, Digest: "not a digest \"quoted\""}
	batches = append(batches, odd, &CellBatch{N: 4}, &CellBatch{N: 1 << 40, Digest: "0000000000000000"})
	for i, b := range batches {
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !bytes.Contains(raw, []byte(`"cells":"`)) {
			t.Fatalf("batch %d: %s is not a format-2 block", i, raw)
		}
		for _, enc := range [][]byte{raw, marshalV1(t, b)} {
			var got CellBatch
			if err := json.Unmarshal(enc, &got); err != nil {
				t.Fatalf("batch %d: decoding %s: %v", i, enc, err)
			}
			if !sameBatch(&got, b) {
				t.Fatalf("batch %d: %s decoded as %+v, want %+v", i, enc, got, *b)
			}
		}
		if b.Digest != "" && b != odd && len(b.Cells) > 0 {
			if err := b.Verify(); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
	}
}

// TestCellBatchJSONFormats pins both wire formats of the same batches:
// literal format-1 and format-2 lines decode to the same cells, which
// verify, and the format-2 literals are exactly what MarshalJSON writes.
func TestCellBatchJSONFormats(t *testing.T) {
	for _, tc := range []struct {
		v1, v2 string
		want   *CellBatch
	}{
		{
			`{"n":4,"cells":[{"round":0,"mask":3,"value":0.5},{"round":1,"mask":1,"value":-0.25}],"digest":"91833f8be748ba56"}`,
			`{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/AQAAAAAAAAABAAAAAAAAAAAAAAAAANC/","digest":"91833f8be748ba56"}`,
			&CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 3, Value: 0.5}, {Round: 1, Mask: 1, Value: -0.25}}, Digest: "91833f8be748ba56"},
		},
		{
			`{"n":70,"cells":[{"round":0,"key":"01000000000000000200000000000000","value":1},{"round":1,"key":"00000000000000002000000000000000","value":2}],"digest":"b399b23ba8c3ac96"}`,
			`{"n":70,"cells":"AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAAAAAAAAAA8D8BAAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAAAAAAAAAQA==","digest":"b399b23ba8c3ac96"}`,
			&CellBatch{N: 70, Cells: []SnapshotCell{{Round: 0, Key: "01000000000000000200000000000000", Value: 1}, {Round: 1, Key: "00000000000000002000000000000000", Value: 2}}, Digest: "b399b23ba8c3ac96"},
		},
	} {
		for _, raw := range []string{tc.v1, tc.v2} {
			var got CellBatch
			if err := json.Unmarshal([]byte(raw), &got); err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
			if !sameBatch(&got, tc.want) {
				t.Fatalf("%s decoded as %+v, want %+v", raw, got, *tc.want)
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
		}
		if out, err := json.Marshal(tc.want); err != nil || string(out) != tc.v2 {
			t.Fatalf("MarshalJSON = %s, %v; want %s", out, err, tc.v2)
		}
	}
	for _, raw := range []string{`{"n":4,"digest":""}`, `{"n":4,"cells":null,"digest":""}`, `{"n":4,"cells":"","digest":""}`, `{"n":4,"cells":[],"digest":""}`} {
		var got CellBatch
		if err := json.Unmarshal([]byte(raw), &got); err != nil || got.N != 4 || len(got.Cells) != 0 {
			t.Fatalf("%s decoded as %+v, %v; want an empty batch", raw, got, err)
		}
	}
}

// TestCellBatchDecodeRejects pins what the decoder refuses in either
// format, so a damaged sidecar line or completion body never becomes a
// batch.
func TestCellBatchDecodeRejects(t *testing.T) {
	for _, tc := range []struct{ name, raw string }{
		{"block one byte short", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/AQAAAAAAAAABAAAAAAAAAAAAAAAAANA=","digest":"b7ed20534d0995ed"}`},
		{"block one byte long", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/AA==","digest":""}`},
		{"key records in a mask universe", `{"n":4,"cells":"AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAAAAAAAAAA8D8=","digest":""}`},
		{"invalid base64", `{"n":4,"cells":"AAAA*AAAAAADAAAAAAAAAAAAAAAAAOA/","digest":""}`},
		{"unpadded base64", `{"n":70,"cells":"AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAAAAAAAAAA8D8","digest":""}`},
		{"non-zero padding bits", `{"n":70,"cells":"AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAAAAAAAAAA8D9=","digest":""}`},
		{"escaped base64", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA\/","digest":""}`},
		{"NaN value", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAEAAAAAAPh/","digest":"f2dfa1a820de863e"}`},
		{"+Inf value", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAPB/","digest":"ce7a909f1155a9b7"}`},
		{"-Inf value", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAPD/","digest":"ce7a109f1154d037"}`},
		{"unknown field", `{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/","digest":"","extra":true}`},
		{"cells a number", `{"n":4,"cells":5,"digest":""}`},
		{"cells an object", `{"n":4,"cells":{},"digest":""}`},
		{"v1 unknown field", `{"n":4,"cells":[],"digest":"","extra":true}`},
		{"v1 unknown cell field", `{"n":4,"cells":[{"round":0,"mask":1,"value":0.5,"col":1}],"digest":""}`},
		{"v1 key in a mask universe", `{"n":4,"cells":[{"round":0,"key":"0100000000000000","value":0.5}],"digest":""}`},
		{"v1 mask in a key universe", `{"n":70,"cells":[{"round":0,"mask":1,"value":0.5}],"digest":""}`},
		{"v1 short key", `{"n":70,"cells":[{"round":0,"key":"0100000000000000","value":0.5}],"digest":""}`},
		{"v1 uppercase key", `{"n":70,"cells":[{"round":0,"key":"0A000000000000000000000000000000","value":0.5}],"digest":""}`},
		{"v1 non-hex key", `{"n":70,"cells":[{"round":0,"key":"0g000000000000000000000000000000","value":0.5}],"digest":""}`},
		{"trailing data", `{"n":4,"cells":"","digest":""} {}`},
	} {
		// The sidecar reader calls UnmarshalJSON on a whole line, without
		// encoding/json's own check of the value around it.
		var b, direct CellBatch
		if err := json.Unmarshal([]byte(tc.raw), &b); err == nil {
			t.Errorf("%s: decoded as %+v, want an error", tc.name, b)
		}
		if err := direct.UnmarshalJSON([]byte(tc.raw)); err == nil {
			t.Errorf("%s: UnmarshalJSON decoded %+v, want an error", tc.name, direct)
		}
	}
}

// TestCellBatchMarshalRejects: a batch the decoder could not read back
// exactly is not written.
func TestCellBatchMarshalRejects(t *testing.T) {
	for _, b := range []*CellBatch{
		{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 1, Value: math.NaN()}}},
		{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 1, Value: math.Inf(-1)}}},
		{N: 4, Cells: []SnapshotCell{{Round: 0, Key: "0100000000000000", Value: 1}}},
		{N: 70, Cells: []SnapshotCell{{Round: 0, Mask: 1, Value: 1}}},
		{N: 70, Cells: []SnapshotCell{{Round: 0, Key: "0A000000000000000000000000000000", Value: 1}}},
	} {
		if raw, err := json.Marshal(b); err == nil {
			t.Errorf("batch %+v marshalled as %s, want an error", *b, raw)
		}
	}
}

// FuzzCellBatchPreload drives the worker-completion trust boundary with
// arbitrary bytes: a strict JSON decode (unknown fields rejected, as the
// worker endpoints decode), Verify, then Preload into small evaluators of
// 4 and 70 clients (the mask and the hex-key encodings). Nothing may
// panic, a batch that decodes must re-encode and decode to the same
// cells, a batch Verify rejects must not preload, and a rejected batch
// must leave the evaluator's preloaded count unchanged. Seeds cover both
// wire formats.
func FuzzCellBatchPreload(f *testing.F) {
	valid := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 0b11, Value: 0.5}, {Round: 1, Mask: 0b1, Value: -0.25}}}
	valid.Stamp()
	dup := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 1, Value: 0.5}, {Round: 0, Mask: 1, Value: 0.7}}}
	dup.Digest = dup.digest()
	wide := NewCellBatch(70, []Cell{{Round: 0, Subset: FromMembers(70, []int{0, 65})}, {Round: 1, Subset: FromMembers(70, []int{69})}}, []float64{1, 2})
	for _, b := range []*CellBatch{valid, dup, wide} {
		raw, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(marshalV1(f, b))
	}
	for _, raw := range []string{
		// Format 1, as older sidecars and workers wrote it.
		`{"n":4,"cells":[{"round":0,"mask":3,"value":0.5},{"round":1,"mask":1,"value":-0.25}],"digest":"91833f8be748ba56"}`,
		`{"n":70,"cells":[{"round":0,"key":"01000000000000000200000000000000","value":1},{"round":1,"key":"00000000000000002000000000000000","value":2}],"digest":"b399b23ba8c3ac96"}`,
		`{"n":4,"cells":[{"round":0,"mask":1,"value":0.5},{"round":0,"mask":1,"value":0.7}],"digest":"0000000000000000"}`,
		`{"n":4,"cells":[{"round":0,"mask":1,"value":0.5,"col":1}],"digest":""}`,
		// Format 2: valid n=4 and n=70 batches, a block one byte short of
		// a record, invalid base64, NaN and Inf values, cells out of
		// order, and an unknown field.
		`{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/AQAAAAAAAAABAAAAAAAAAAAAAAAAANC/","digest":"91833f8be748ba56"}`,
		`{"n":70,"cells":"AAAAAAAAAAABAAAAAAAAAAIAAAAAAAAAAAAAAAAA8D8BAAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAAAAAAAAAQA==","digest":"b399b23ba8c3ac96"}`,
		`{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/AQAAAAAAAAABAAAAAAAAAAAAAAAAANA=","digest":"b7ed20534d0995ed"}`,
		`{"n":4,"cells":"AAAA*AAAAAADAAAAAAAAAAAAAAAAAOA/","digest":""}`,
		`{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAEAAAAAAPh/","digest":"f2dfa1a820de863e"}`,
		`{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAPB/","digest":"ce7a909f1155a9b7"}`,
		`{"n":4,"cells":"AQAAAAAAAAABAAAAAAAAAAAAAAAAANC/AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/","digest":"4e1f5a088e1e7a72"}`,
		`{"n":4,"cells":"AAAAAAAAAAADAAAAAAAAAAAAAAAAAOA/AQAAAAAAAAABAAAAAAAAAAAAAAAAANC/","digest":"91833f8be748ba56","extra":true}`,
	} {
		f.Add([]byte(raw))
	}
	runs := []*fl.Run{
		{Clients: make([]*dataset.Dataset, 4), Rounds: make([]fl.Round, 2)},
		{Clients: make([]*dataset.Dataset, 70), Rounds: make([]fl.Round, 2)},
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		b := new(CellBatch)
		if err := dec.Decode(b); err != nil {
			return
		}
		again, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		var back CellBatch
		if err := json.Unmarshal(again, &back); err != nil || !sameBatch(&back, b) {
			t.Fatalf("batch %+v re-encoded as %s, decoded as %+v, %v", *b, again, back, err)
		}
		verr := b.Verify()
		for _, run := range runs {
			e := NewEvaluator(run)
			before := e.Preloaded()
			added, err := e.Preload(b)
			if err != nil {
				if added != 0 || e.Preloaded() != before {
					t.Fatalf("rejected batch changed the evaluator: added %d, preloaded %d → %d (%v)", added, before, e.Preloaded(), err)
				}
				continue
			}
			if verr != nil && len(b.Cells) > 0 {
				t.Fatalf("Preload accepted a batch Verify rejects: %v", verr)
			}
			if e.Preloaded() != before+added {
				t.Fatalf("accepted batch: preloaded %d → %d, added %d", before, e.Preloaded(), added)
			}
		}
	})
}

// sameCoordinates reports whether a and b list the same (round, coalition)
// cells in the same order.
func sameCoordinates(a, b *CellBatch) bool {
	if a.N != b.N || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		x, y := a.Cells[i], b.Cells[i]
		if x.Round != y.Round || x.Mask != y.Mask || x.Key != y.Key {
			return false
		}
	}
	return true
}

// TestPayMatchesLocalBatch pins the worker half of a lease: Pay over a
// request listing cells returns exactly the batch a local observation of
// the same cells builds — same coordinates, values and digest — in the
// mask and the hex-key encodings, and an empty request pays nothing.
func TestPayMatchesLocalBatch(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{4, 66} {
		run := tinyRun(t, n, 2, 3)
		cells := []Cell{
			{Round: 1, Subset: FromMembers(n, []int{0, 2})},
			{Round: 0, Subset: FromMembers(n, []int{n - 1})},
			{Round: 1, Subset: FromMembers(n, []int{1})},
		}
		local := NewEvaluator(run)
		vals, _, err := local.UtilityBatchCtx(ctx, cells, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := NewCellBatch(n, cells, vals)
		req := NewCellBatch(n, cells, make([]float64, len(cells)))
		worker := NewEvaluator(run)
		got, err := worker.Pay(ctx, req, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sameBatch(got, want) {
			t.Fatalf("n=%d: paid %+v, want %+v", n, got, want)
		}
		if worker.Calls() != len(cells) {
			t.Fatalf("n=%d: paid %d evaluations, want %d", n, worker.Calls(), len(cells))
		}
		empty := &CellBatch{N: n}
		empty.Stamp()
		if got, err := worker.Pay(ctx, empty, 2); err != nil || len(got.Cells) != 0 || got.Digest != empty.Digest {
			t.Fatalf("n=%d: Pay(empty) = (%+v, %v), want an empty batch", n, got, err)
		}
	}
}

// TestPayRejectsBadRequests: a lease's cell list that does not fit the
// run — or is not canonical — is refused before any cell is paid.
func TestPayRejectsBadRequests(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	req := func(cells ...SnapshotCell) *CellBatch {
		b := &CellBatch{N: 4, Cells: cells}
		b.Stamp()
		return b
	}
	unsorted := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 1, Mask: 1}, {Round: 0, Mask: 1}}}
	unsorted.Digest = unsorted.digest()
	for _, tc := range []struct {
		name string
		req  *CellBatch
	}{
		{"nil", nil},
		{"wrong-universe", func() *CellBatch { b := req(SnapshotCell{Round: 0, Mask: 1}); b.N = 5; b.Stamp(); return b }()},
		{"empty-wrong-universe", func() *CellBatch { b := req(); b.N = 5; return b }()},
		{"bad-digest", func() *CellBatch { b := req(SnapshotCell{Round: 0, Mask: 1}); b.Digest = "dead"; return b }()},
		{"out-of-range-round", req(SnapshotCell{Round: 0, Mask: 1}, SnapshotCell{Round: 2, Mask: 1})},
		{"negative-round", req(SnapshotCell{Round: -1, Mask: 1}, SnapshotCell{Round: 0, Mask: 1})},
		{"empty-coalition", req(SnapshotCell{Round: 0, Mask: 0}, SnapshotCell{Round: 0, Mask: 1})},
		{"bits-beyond-universe", req(SnapshotCell{Round: 0, Mask: 1}, SnapshotCell{Round: 0, Mask: 1 << 4})},
		{"key-in-mask-universe", req(SnapshotCell{Round: 0, Key: "0100000000000000"})},
		{"out-of-order", unsorted},
	} {
		e := NewEvaluator(run)
		if got, err := e.Pay(context.Background(), tc.req, 2); err == nil {
			t.Fatalf("%s: Pay accepted the request and returned %+v", tc.name, got)
		}
		if e.Calls() != 0 {
			t.Fatalf("%s: rejected request paid %d evaluations", tc.name, e.Calls())
		}
	}
}

// FuzzCellBatchPay drives the worker side of a lease with arbitrary bytes
// as the lease's cell list: a strict decode, then Pay against real runs of
// 4 and 66 clients (the mask and the hex-key encodings). Nothing may
// panic; an accepted list must return a verified batch with exactly the
// requested coordinates, each value the evaluator's own; a rejected list
// must pay nothing.
func FuzzCellBatchPay(f *testing.F) {
	valid := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 0b11}, {Round: 1, Mask: 0b1}}}
	valid.Stamp()
	unsorted := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 1, Mask: 1}, {Round: 0, Mask: 1}}}
	unsorted.Digest = unsorted.digest()
	wide := NewCellBatch(66, []Cell{{Round: 0, Subset: FromMembers(66, []int{0, 65})}, {Round: 1, Subset: FromMembers(66, []int{64})}}, []float64{0, 0})
	seeds := []*CellBatch{valid, unsorted, wide}
	for _, cells := range [][]SnapshotCell{
		{{Round: 2, Mask: 1}},      // round out of range
		{{Round: 0, Mask: 0}},      // empty coalition
		{{Round: 0, Mask: 1 << 4}}, // bits beyond the universe
	} {
		b := &CellBatch{N: 4, Cells: cells}
		b.Stamp()
		seeds = append(seeds, b)
	}
	for _, b := range seeds {
		raw, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	runs := []*fl.Run{tinyRun(f, 4, 2, 2), tinyRun(f, 66, 2, 3)}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		req := new(CellBatch)
		if err := dec.Decode(req); err != nil {
			return
		}
		for _, run := range runs {
			e := NewEvaluator(run)
			got, err := e.Pay(context.Background(), req, 2)
			if err != nil {
				if e.Calls() != 0 {
					t.Fatalf("rejected request paid %d evaluations (%v)", e.Calls(), err)
				}
				continue
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("paid batch does not verify: %v", err)
			}
			if !sameCoordinates(got, req) {
				t.Fatalf("request %+v paid as %+v", *req, *got)
			}
			for i, c := range got.Cells {
				ck, err := cellKeyOf(got.N, &c)
				if err != nil {
					t.Fatalf("paid cell %d: %v", i, err)
				}
				if want := e.Utility(c.Round, ck.set.set(got.N)); math.Float64bits(c.Value) != math.Float64bits(want) {
					t.Fatalf("paid cell %d value %v, evaluator's %v", i, c.Value, want)
				}
			}
		}
	})
}

// warmBatches returns batches shaped like one run's cell sidecar in the
// warm_mc benchmark workload: 5 batches of 2,720 distinct cells over 24
// clients and 30 rounds.
func warmBatches() []*CellBatch {
	g := rng.New(5)
	seen := make(map[cellKey]bool)
	var out []*CellBatch
	for len(out) < 5 {
		b := &CellBatch{N: 24}
		for len(b.Cells) < 2720 {
			ck := cellKey{t: g.Intn(30), set: Key{mask: uint64(g.Int63()) & (1<<24 - 1)}}
			if ck.set.mask == 0 || seen[ck] {
				continue
			}
			seen[ck] = true
			b.Cells = append(b.Cells, SnapshotCell{Round: ck.t, Mask: ck.set.mask, Value: g.Normal(1, 0.5)})
		}
		b.Stamp()
		out = append(out, b)
	}
	return out
}

// BenchmarkPreload installs one run's worth of sidecar batches into a
// fresh evaluator, Verify included.
func BenchmarkPreload(b *testing.B) {
	batches := warmBatches()
	run := &fl.Run{Clients: make([]*dataset.Dataset, 24), Rounds: make([]fl.Round, 30)}
	b.ReportAllocs()
	for b.Loop() {
		e := NewEvaluator(run)
		for _, batch := range batches {
			if _, err := e.Preload(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*5*2720), "ns/cell")
}
