// Package bitset provides a dense, fixed-capacity bitset used as the
// adjacency-row representation for seed subgraphs. Seed subgraphs G_i are
// small (|V_i| is bounded by the degeneracy-based analysis in the paper) and
// dense, so a flat []uint64 per vertex gives O(|V_i|/64) set algebra, which
// is what the paper's "adjacency matrix" representation of G_i amounts to.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset. The zero value is an empty set with
// capacity 0; use New to create one with room for n bits. Bits at positions
// >= the capacity passed to New must not be set.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits (not the number of set bits; see Count).
func (s *Set) Len() int { return s.n }

// Words exposes the backing words for read-only iteration by hot loops.
func (s *Set) Words() []uint64 { return s.words }

// Add sets bit i.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Remove clears bit i.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets all bits in [0, Len()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim clears the unused high bits of the last word so Count and Empty stay
// correct after Fill/FlipAll.
func (s *Set) trim() {
	if r := uint(s.n & 63); r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// Resize re-dimensions s to capacity n and clears it, reusing the backing
// words when they are long enough, so scratch sets that follow a sequence
// of differently sized domains stop allocating once they have seen the
// largest.
func (s *Set) Resize(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
		clear(s.words)
	}
	s.n = n
}

// Copy overwrites s with src. The two sets must have equal capacity.
func (s *Set) Copy(src *Set) {
	if s.n != src.n {
		panic("bitset: Copy capacity mismatch")
	}
	copy(s.words, src.words)
}

// And sets s = s ∩ t.
func (s *Set) And(t *Set) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Or sets s = s ∪ t.
func (s *Set) Or(t *Set) {
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// IntersectionCount returns |s ∩ t| without allocating.
func (s *Set) IntersectionCount(t *Set) int {
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// CountUpto returns the number of set bits strictly below position i. Seed
// graphs keep the candidate space in the local-id prefix [0, nv), so a
// vertex's candidate-space degree is adj.CountUpto(nv) — no mask bitset
// needed.
func (s *Set) CountUpto(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= s.n {
		return s.Count()
	}
	c := 0
	for wi := 0; wi < i>>6; wi++ {
		c += bits.OnesCount64(s.words[wi])
	}
	if r := uint(i & 63); r != 0 {
		c += bits.OnesCount64(s.words[i>>6] & ((1 << r) - 1))
	}
	return c
}

// Next returns the smallest set bit >= i, or -1 if none exists.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i >> 6
	w := s.words[wi] >> uint(i&63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls f for every set bit in ascending order. Iteration uses the
// words directly and is safe against f mutating bits at or before the
// current position.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Any returns an arbitrary set bit (the smallest), or -1 if the set is empty.
func (s *Set) Any() int { return s.Next(0) }

// AppendTo appends the positions of all set bits to dst and returns it.
func (s *Set) AppendTo(dst []int) []int {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// String renders the set as {a, b, c} for debugging and test failure output.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// Arena allocates bitsets of one fixed capacity from contiguous backing
// storage. Seed subgraph adjacency matrices use an arena so that a |V_i|×|V_i|
// matrix is one allocation, improving cache locality during branching (the
// property the paper's stage-based parallel layout is designed around).
//
// An arena is resettable: Reset re-dimensions it for the next seed graph
// while reusing both the word storage and the Set headers, so a warmed-up
// arena hands out rows without touching the heap — the property the
// zero-allocation seed-build pipeline is built on. Rows handed out before a
// Reset alias storage the reset recycles; callers must not Reset an arena
// whose previous rows are still live.
type Arena struct {
	n     int
	wpr   int // words per row
	store []uint64
	sets  []Set // pooled headers, one per handed-out row
	rows  int   // rows handed out since the last Reset
}

// Reset re-dimensions the arena for rows bitsets of capacity n, recycling
// the backing storage and headers of previous generations. All words are
// zeroed, so every subsequent New returns an empty set. Allocation happens
// only when the requested footprint exceeds every earlier one.
func (a *Arena) Reset(n, rows int) {
	if n < 0 || rows < 0 {
		panic("bitset: negative arena dimensions")
	}
	wpr := (n + wordBits - 1) / wordBits
	need := wpr * rows
	if cap(a.store) < need {
		a.store = make([]uint64, need)
	} else {
		a.store = a.store[:need]
		clear(a.store)
	}
	if cap(a.sets) < rows {
		a.sets = make([]Set, rows)
	} else {
		a.sets = a.sets[:rows]
	}
	a.n, a.wpr, a.rows = n, wpr, 0
}

// New returns a fresh empty bitset of the arena's capacity. Rows allocated
// within the pre-sized capacity share one backing array; rows beyond it fall
// back to individual allocations (earlier rows remain valid either way).
func (a *Arena) New() *Set {
	if a.rows >= len(a.sets) {
		return &Set{words: make([]uint64, a.wpr), n: a.n}
	}
	off := a.rows * a.wpr
	s := &a.sets[a.rows]
	a.rows++
	*s = Set{words: a.store[off : off+a.wpr : off+a.wpr], n: a.n}
	return s
}
