package utility

import (
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(100)
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("fresh set must be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(99)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for _, m := range []int{0, 63, 64, 99} {
		if !s.Contains(m) {
			t.Fatalf("missing member %d", m)
		}
	}
	if s.Contains(1) {
		t.Fatal("spurious member 1")
	}
	s.Remove(63)
	if s.Contains(63) || s.Len() != 3 {
		t.Fatal("Remove failed")
	}
}

func TestSetMembersSorted(t *testing.T) {
	s := FromMembers(70, []int{65, 3, 40})
	ms := s.Members()
	want := []int{3, 40, 65}
	if len(ms) != 3 {
		t.Fatalf("Members = %v", ms)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("Members = %v, want %v", ms, want)
		}
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	s := NewSet(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add(10)
}

func TestSetCloneAndWith(t *testing.T) {
	s := FromMembers(10, []int{1, 2})
	w := s.With(5)
	if s.Contains(5) {
		t.Fatal("With must not mutate the receiver")
	}
	if !w.Contains(5) || !w.Contains(1) {
		t.Fatal("With must add to a copy")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromMembers(70, []int{1, 65})
	b := FromMembers(70, []int{1, 2, 65})
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊄ a expected")
	}
	if !a.SubsetOf(a) {
		t.Fatal("a ⊆ a expected")
	}
}

func TestKeyUniqueness(t *testing.T) {
	// Property: keys are equal iff sets are equal.
	f := func(xs, ys []uint8) bool {
		a := NewSet(200)
		b := NewSet(200)
		for _, x := range xs {
			a.Add(int(x) % 200)
		}
		for _, y := range ys {
			b.Add(int(y) % 200)
		}
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskRoundTrip(t *testing.T) {
	for mask := uint64(0); mask < 64; mask++ {
		s := FromMask(6, mask)
		if s.Mask() != mask {
			t.Fatalf("mask %d round-tripped to %d", mask, s.Mask())
		}
	}
}

func TestFromMaskTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromMask(3, 0x10)
}

func TestFullSet(t *testing.T) {
	s := FullSet(130)
	if s.Len() != 130 {
		t.Fatalf("FullSet len %d", s.Len())
	}
}

func TestString(t *testing.T) {
	s := FromMembers(10, []int{3, 0, 7})
	if got := s.String(); got != "{0,3,7}" {
		t.Fatalf("String = %q", got)
	}
}

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool {
	if s.n != t.n {
		panic("utility: subset check across universes")
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same members of the same universe.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// FullSet returns {0, …, n-1}.
func FullSet(n int) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}
