// Package utility implements the paper's utility matrix U ∈ R^{T×2^N}
// (Section VI-A): subset encoding for arbitrary client counts, a memoized
// evaluator for the per-round subset utility U_t(S), a sparse store of
// observed entries feeding the matrix-completion problem (9)/(13), and full
// materialization for small N (ground truth, Fig. 2 spectra).
package utility

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Set is a fixed-universe bitset over clients {0, …, n-1}. It is the column
// index type of the utility matrix and supports client counts beyond 64
// (the noisy-label experiment uses N = 100).
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set over a universe of n clients.
func NewSet(n int) Set {
	if n < 0 {
		panic(fmt.Sprintf("utility: negative universe %d", n))
	}
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// FromMembers returns the set over universe n containing the given members.
func FromMembers(n int, members []int) Set {
	s := NewSet(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Universe returns the size of the universe n.
func (s Set) Universe() int { return s.n }

// Add inserts client i.
func (s Set) Add(i int) {
	s.checkIndex(i)
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove deletes client i.
func (s Set) Remove(i int) {
	s.checkIndex(i)
	s.words[i/64] &^= 1 << (uint(i) % 64)
}

// Contains reports whether client i is a member.
func (s Set) Contains(i int) bool {
	s.checkIndex(i)
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (s Set) checkIndex(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("utility: client %d out of universe %d", i, s.n))
	}
}

// Len returns the cardinality |S|.
func (s Set) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// IsEmpty reports whether S = ∅.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Members returns the sorted member list.
func (s Set) Members() []int {
	return s.AppendMembers(make([]int, 0, s.Len()))
}

// AppendMembers appends the members of S to buf in ascending order and
// returns the extended slice — the allocation-free counterpart of Members
// for callers that reuse a scratch buffer. Word-order iteration with
// trailing-zero extraction already yields ascending indices, so no sort is
// needed.
func (s Set) AppendMembers(buf []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, wi*64+b)
			w &= w - 1
		}
	}
	return buf
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(out.words, s.words)
	return out
}

// With returns a copy of S with client i added.
func (s Set) With(i int) Set {
	out := s.Clone()
	out.Add(i)
	return out
}

// Key is a comparable, allocation-free identifier of a Set within one
// fixed universe: for n ≤ 64 the single bitmask word identifies the set and
// str stays empty; larger universes fall back to a string of the words.
// Two sets over the same universe have equal Keys iff they are equal,
// which is the invariant the evaluator cache, the Store's column index and
// FedSV's prefix index rely on.
type Key struct {
	mask uint64
	str  string
}

// Key returns the Key of s. It does not allocate for n ≤ 64 — the
// memoized-evaluator hot path, where a per-lookup string key dominated
// small-coalition lookups.
func (s Set) Key() Key {
	if len(s.words) <= 1 {
		return Key{mask: s.Mask()}
	}
	b := make([]byte, 8*len(s.words))
	for i, w := range s.words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return Key{str: string(b)}
}

// set returns the set over a universe of n clients that k identifies.
func (k Key) set(n int) Set {
	if k.str == "" {
		return FromMask(n, k.mask)
	}
	s := NewSet(n)
	for i := range s.words {
		s.words[i] = binary.LittleEndian.Uint64([]byte(k.str[8*i:]))
	}
	return s
}

// String renders the member list, e.g. "{0,3,7}".
func (s Set) String() string {
	ms := s.Members()
	out := "{"
	for i, m := range ms {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(m)
	}
	return out + "}"
}

// Mask returns the bitmask of the set for universes of at most 64 clients.
// It panics for larger universes.
func (s Set) Mask() uint64 {
	if s.n > 64 {
		panic("utility: mask of universe larger than 64")
	}
	if len(s.words) == 0 {
		return 0
	}
	return s.words[0]
}

// FromMask returns the set over universe n (≤64) described by mask.
func FromMask(n int, mask uint64) Set {
	if n > 64 {
		panic("utility: mask universe larger than 64")
	}
	s := NewSet(n)
	if len(s.words) > 0 {
		s.words[0] = mask
	}
	if n < 64 && mask>>uint(n) != 0 {
		panic(fmt.Sprintf("utility: mask %#x exceeds universe %d", mask, n))
	}
	return s
}
