package dataset

import (
	"testing"

	"comfedsv/internal/rng"
)

func tiny() *Dataset {
	return &Dataset{
		X:          [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		Y:          []int{0, 1, 0, 1},
		NumClasses: 2,
	}
}

func TestValidateOK(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Dataset)
	}{
		{"length mismatch", func(d *Dataset) { d.Y = d.Y[:2] }},
		{"bad class count", func(d *Dataset) { d.NumClasses = 0 }},
		{"ragged rows", func(d *Dataset) { d.X[1] = []float64{1} }},
		{"label out of range", func(d *Dataset) { d.Y[0] = 5 }},
		{"negative label", func(d *Dataset) { d.Y[0] = -1 }},
		{"shape mismatch", func(d *Dataset) { d.Shape = &ImageShape{Height: 3, Width: 3, Channels: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tiny()
			tc.mut(d)
			if err := d.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := tiny()
	c := d.Clone()
	c.X[0][0] = 99
	c.Y[0] = 1
	if d.X[0][0] == 99 || d.Y[0] == 1 {
		t.Fatal("Clone must deep-copy features and labels")
	}
}

func TestSubset(t *testing.T) {
	d := tiny()
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.X[0][0] != 5 || s.X[1][0] != 1 {
		t.Fatalf("Subset rows wrong: %+v", s.X)
	}
	if s.Y[0] != 0 || s.Y[1] != 0 {
		t.Fatalf("Subset labels wrong: %v", s.Y)
	}
}

func TestConcat(t *testing.T) {
	a, b := tiny(), tiny()
	c := Concat(a, b)
	if c.Len() != 8 {
		t.Fatalf("Concat length %d, want 8", c.Len())
	}
	if c.NumClasses != 2 {
		t.Fatalf("Concat classes %d, want 2", c.NumClasses)
	}
}

func TestConcatClassMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := tiny()
	b.NumClasses = 3
	Concat(tiny(), b)
}

func TestClassCounts(t *testing.T) {
	counts := tiny().ClassCounts()
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("ClassCounts = %v, want [2 2]", counts)
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	d := &Dataset{NumClasses: 10}
	for i := 0; i < 50; i++ {
		d.X = append(d.X, []float64{float64(i)})
		d.Y = append(d.Y, i%10)
	}
	d.Shuffle(rng.New(1))
	for i, x := range d.X {
		if int(x[0])%10 != d.Y[i] {
			t.Fatal("Shuffle must keep feature-label pairs together")
		}
	}
}

func TestGenerateSyntheticShapes(t *testing.T) {
	cfg := DefaultSyntheticConfig(1, 1, 3)
	sets := GenerateSynthetic(cfg, []int{10, 20, 0})
	if len(sets) != 3 {
		t.Fatalf("got %d datasets, want 3", len(sets))
	}
	if sets[0].Len() != 10 || sets[1].Len() != 20 || sets[2].Len() != 0 {
		t.Fatal("dataset sizes do not match request")
	}
	for _, d := range sets[:2] {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.Dim() != cfg.Dim {
			t.Fatalf("dim %d, want %d", d.Dim(), cfg.Dim)
		}
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := DefaultSyntheticConfig(1, 1, 7)
	a := GenerateSynthetic(cfg, []int{5})
	b := GenerateSynthetic(cfg, []int{5})
	for i := range a[0].X {
		if a[0].Y[i] != b[0].Y[i] {
			t.Fatal("generator must be deterministic in the seed")
		}
		for j := range a[0].X[i] {
			if a[0].X[i][j] != b[0].X[i][j] {
				t.Fatal("generator must be deterministic in the seed")
			}
		}
	}
}

func TestGenerateSyntheticIIDShares(t *testing.T) {
	// α=β=0: two clients' label models coincide, so a logistic fit on one
	// should roughly transfer — we verify the cheaper proxy that both
	// clients' class histograms are similar and labels span classes.
	cfg := DefaultSyntheticConfig(0, 0, 5)
	sets := GenerateSynthetic(cfg, []int{300, 300})
	c0, c1 := sets[0].ClassCounts(), sets[1].ClassCounts()
	for c := range c0 {
		diff := c0[c] - c1[c]
		if diff < 0 {
			diff = -diff
		}
		if diff > 100 {
			t.Fatalf("IID clients should have similar class mixes: %v vs %v", c0, c1)
		}
	}
}

func TestGenerateImages(t *testing.T) {
	cfg := MNISTLikeConfig(3)
	d := GenerateImages(cfg, 100)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 100 {
		t.Fatalf("length %d, want 100", d.Len())
	}
	if d.Shape == nil || d.Shape.Size() != d.Dim() {
		t.Fatal("image dataset must carry a consistent shape")
	}
	counts := d.ClassCounts()
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("balanced generator gave %d of class %d, want 10", n, c)
		}
	}
}

func TestImageConfigsDiffer(t *testing.T) {
	m := MNISTLikeConfig(1)
	f := FMNISTLikeConfig(1)
	c := CIFARLikeConfig(1)
	if m.Separation <= f.Separation || f.Separation <= c.Separation {
		t.Fatal("difficulty ordering must be MNIST < FMNIST < CIFAR")
	}
	if c.Shape.Channels != 3 {
		t.Fatal("CIFAR stand-in must have 3 channels")
	}
}

// ClassCounts returns a histogram of labels.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}
