package utility

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
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

// FuzzCellBatchPreload drives the worker-completion trust boundary with
// arbitrary bytes: a strict JSON decode (unknown fields rejected, as the
// worker endpoints decode), Verify, then Preload into small evaluators of
// 4 and 70 clients (the mask and the hex-key encodings). Nothing may
// panic, a batch Verify rejects must not preload, and a rejected batch
// must leave the evaluator's preloaded count unchanged.
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
