package utility

import (
	"math"
	"testing"

	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/model"
	"comfedsv/internal/rng"
)

func tinyRun(t testing.TB, clients, rounds, perRound int) *fl.Run {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(23), clients*20+40)
	g := rng.New(24)
	train, test := dataset.TrainTestSplit(full, float64(40)/float64(full.Len()), g)
	parts := dataset.PartitionIID(train, clients, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(rounds, perRound)
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestEvaluatorMemoizes(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	e := NewEvaluator(run)
	s := FromMembers(4, []int{0, 2})
	v1 := e.Utility(1, s)
	calls := e.Calls()
	v2 := e.Utility(1, s)
	if v1 != v2 {
		t.Fatal("memoized value changed")
	}
	if e.Calls() != calls {
		t.Fatal("second evaluation must hit the cache")
	}
}

func TestEvaluatorEmptySetZero(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	e := NewEvaluator(run)
	if got := e.Utility(0, NewSet(4)); got != 0 {
		t.Fatalf("empty-set utility %v, want 0", got)
	}
	if e.Calls() != 0 {
		t.Fatal("empty set must not cost a call")
	}
}

func TestEvaluatorMatchesRun(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	e := NewEvaluator(run)
	s := FromMembers(4, []int{1, 3})
	if got, want := e.Utility(2, s), run.Utility(2, []int{1, 3}); math.Abs(got-want) > 1e-15 {
		t.Fatalf("evaluator %v != run %v", got, want)
	}
}

func TestStoreColumns(t *testing.T) {
	st := NewStore(3, 5)
	a := FromMembers(5, []int{0})
	b := FromMembers(5, []int{0, 1})
	ca := st.ColumnOf(a)
	cb := st.ColumnOf(b)
	if ca == cb {
		t.Fatal("distinct subsets must get distinct columns")
	}
	if got := st.ColumnOf(a); got != ca {
		t.Fatal("repeated registration must return the same column")
	}
	if !st.ColumnSet(ca).Equal(a) {
		t.Fatal("ColumnSet must invert ColumnOf")
	}
	if st.NumColumns() != 2 {
		t.Fatalf("NumColumns = %d, want 2", st.NumColumns())
	}
	if _, ok := st.HasColumn(FromMembers(5, []int{4})); ok {
		t.Fatal("HasColumn must not register")
	}
}

// TestStoreObserve pins the observation list: entries in Observe order,
// each cell's column the one its subset registered, one entry per call.
func TestStoreObserve(t *testing.T) {
	st := NewStore(3, 5)
	s := FromMembers(5, []int{0, 1})
	u := FromMembers(5, []int{2})
	st.Observe(0, s, 1.5)
	st.Observe(2, u, 2.5)
	st.Observe(1, s, 3.5)
	want := []Observation{{Row: 0, Col: 0, Val: 1.5}, {Row: 2, Col: 1, Val: 2.5}, {Row: 1, Col: 0, Val: 3.5}}
	if st.NumObserved() != len(want) {
		t.Fatalf("observed %d entries, want %d", st.NumObserved(), len(want))
	}
	for i, o := range st.Observations() {
		if o != want[i] {
			t.Fatalf("observation %d = %+v, want %+v", i, o, want[i])
		}
	}
}

func TestStoreObserveBadRoundPanics(t *testing.T) {
	st := NewStore(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Observe(2, FromMembers(3, []int{0}), 1)
}

func TestStoreUniverseMismatchPanics(t *testing.T) {
	st := NewStore(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.ColumnOf(FromMembers(4, []int{0}))
}

func TestStoreDensity(t *testing.T) {
	st := NewStore(2, 3)
	st.Observe(0, FromMembers(3, []int{0}), 1)
	st.Observe(1, FromMembers(3, []int{1}), 1)
	// 2 observations over 2 rounds × 2 columns.
	if got := st.Density(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Density = %v, want 0.5", got)
	}
}

func TestFullMatrixShapeAndValues(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	e := NewEvaluator(run)
	u := FullMatrix(e, 2)
	rows, cols := u.Dims()
	if rows != 3 || cols != 16 {
		t.Fatalf("full matrix %dx%d, want 3x16", rows, cols)
	}
	// Column 0 (empty set) must be zero.
	for r := 0; r < rows; r++ {
		if u.At(r, 0) != 0 {
			t.Fatal("empty-set column must be zero")
		}
	}
	// Spot-check a single-client column.
	want := e.Utility(1, FromMask(4, 0b0100))
	if got := u.At(1, 0b0100); math.Abs(got-want) > 1e-15 {
		t.Fatalf("cell = %v, want %v", got, want)
	}
}

func TestSelectedCellsCoverSubsetsOfSelection(t *testing.T) {
	run := tinyRun(t, 5, 4, 2)
	cells, err := SelectedCells(run)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 is full (5 clients): 31 subsets. Rounds 1–3: 3 subsets each.
	if want := 31 + 3*3; len(cells) != want {
		t.Fatalf("listed %d cells, want %d", len(cells), want)
	}
	// Round by round, each round's subsets in mask order over the
	// positions in Selected.
	i := 0
	for tr, rd := range run.Rounds {
		for mask := uint64(1); mask < 1<<uint(len(rd.Selected)); mask++ {
			var members []int
			for b, client := range rd.Selected {
				if mask&(1<<uint(b)) != 0 {
					members = append(members, client)
				}
			}
			if c := cells[i]; c.Round != tr || !c.Subset.Equal(FromMembers(5, members)) {
				t.Fatalf("cell %d = round %d %v, want round %d %v", i, c.Round, c.Subset, tr, members)
			}
			i++
		}
	}
}

func TestSelectedCellsRejectsWideRound(t *testing.T) {
	run := &fl.Run{Rounds: []fl.Round{{Selected: make([]int, 21)}}}
	if _, err := SelectedCells(run); err == nil {
		t.Fatal("a 21-client round was listed")
	}
}

func TestDuplicateClientsShareColumnsValues(t *testing.T) {
	// With duplicated client data, U_t(S∪{i}) == U_t(S∪{j}) exactly.
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(29), 140)
	g := rng.New(30)
	train, test := dataset.TrainTestSplit(full, 40.0/140, g)
	parts := dataset.PartitionIID(train, 4, g)
	parts[3] = parts[0].Clone()
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	run, err := fl.TrainRun(fl.DefaultConfig(3, 2), m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(run)
	for tr := 0; tr < 3; tr++ {
		a := e.Utility(tr, FromMembers(4, []int{0, 1}))
		b := e.Utility(tr, FromMembers(4, []int{3, 1}))
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("round %d: symmetric subsets valued differently: %v vs %v", tr, a, b)
		}
	}
}

// HasColumn reports whether s has been registered, without registering it.
func (st *Store) HasColumn(s Set) (int, bool) {
	c, ok := st.cols[s.Key()]
	return c, ok
}

// NumObserved returns the number of recorded entries.
func (st *Store) NumObserved() int { return len(st.obs) }
