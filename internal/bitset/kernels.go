package bitset

import "math/bits"

// Row-major word-slice kernels. The Set methods above operate through a
// header indirection per call; the hot loops of the seed pipeline (the
// Corollary-5.2 peel during seed-graph construction, the refine/pivot
// intersections of Branch) instead run on raw []uint64 rows carved out of
// an Arena, so one adjacency matrix is one contiguous allocation and the
// innermost operation is a straight-line AND/popcount sweep — the
// word-parallel formulation of the paper's "adjacency matrix of G_i".
//
// All kernels operate over min(len(a), len(b)) words; callers pass rows
// pre-sliced to the word prefix they care about (e.g. the candidate-space
// prefix of a seed graph). They are the bit-parallel counterparts of the
// merge-based graph.CountCommon contract: nil and empty slices are valid
// and behave as empty sets.

// AndCount returns popcount(a & b), the bit-parallel |a ∩ b|. The 4-way
// unroll keeps the popcounts independent so they pipeline; the tail loop
// covers the last 0-3 words.
func AndCount(a, b []uint64) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	c := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		c += bits.OnesCount64(a[i]&b[i]) +
			bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) +
			bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// Subset reports whether a ⊆ b over min(len(a), len(b)) words.
func Subset(a, b []uint64) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Peel runs the Corollary-5.2 style degeneracy peel over a row-major
// adjacency matrix: rows holds n rows of stride words each (row i =
// neighbours of vertex i as a bitset over [0, n)), alive is a stride-word
// bitset of the vertices still in play. Vertices whose surviving-neighbour
// count |row_i ∩ alive| falls below thr are removed, to a fixed point;
// alive is updated in place and the surviving count is returned.
//
// The count is a branchless AND/popcount sweep per row; rounds repeat only
// while the previous round removed something, so the worst case is
// O(n²/64) words per round × O(n) rounds, with dense seed graphs
// converging in 2-3 rounds in practice. A non-positive thr never removes
// anything.
func Peel(rows []uint64, stride, n int, alive []uint64, thr int) int {
	live := AndCount(alive, alive) // popcount via self-AND
	if thr <= 0 || live == 0 {
		return live
	}
	for changed := true; changed; {
		changed = false
		for wi := 0; wi < stride; wi++ {
			w := alive[wi]
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &= w - 1
				i := wi<<6 + b
				if AndCount(rows[i*stride:(i+1)*stride], alive) < thr {
					alive[wi] &^= 1 << uint(b)
					live--
					changed = true
				}
			}
		}
	}
	return live
}

// Rows exposes the arena's contiguous backing words: row i (for i within
// the pre-sized capacity) occupies words [i*WordsPerRow(), (i+1)*
// WordsPerRow()). The matrix kernels (Peel, AndCount over row slices)
// index it directly, skipping the Set header indirection.
func (a *Arena) Rows() []uint64 { return a.store }

// WordsPerRow returns the arena's row stride in 64-bit words.
func (a *Arena) WordsPerRow() int { return a.wpr }
