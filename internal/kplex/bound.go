package kplex

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/bitset"
)

// boundScratch holds the reusable buffers for Algorithm 4. Each worker owns
// one, grown lazily to the largest seed graph seen. Its contents are only
// meaningful within one bound computation, so every branch frame shares it.
type boundScratch struct {
	sup     []int // sup_P(u) working copy, indexed by local vertex id
	sortBuf []sortCand
}

type sortCand struct {
	v       int
	nonNbrs int
}

func (bs *boundScratch) resize(nAll int) {
	bs.sup = growInts(bs.sup, nAll)
}

// initSup fills bs.sup[u] = sup_P(u) = k - d̄_P(u) for every u ∈ P, where
// d̄_P(u) = |P| - d_P(u) counts u itself.
func (bs *boundScratch) initSup(pBits []uint64, k, sizeP int, degP []int) {
	for i, m := range pBits {
		for ; m != 0; m &= m - 1 {
			u := i<<6 | bits.TrailingZeros64(m)
			bs.sup[u] = k - (sizeP - degP[u])
		}
	}
}

// charge is the greedy step of Algorithm 4 for one candidate with
// candidate-space adjacency row rw: it finds u_m, the non-neighbour of the
// candidate in P with the least remaining support (the smallest id on
// ties, as the walk is ascending and the comparison strict), and reports
// whether the candidate counts towards K, consuming one unit of u_m's
// support when it does.
func charge(sup []int, pBits, rw []uint64) bool {
	um := -1
	for i, p := range pBits {
		for m := p &^ rw[i]; m != 0; m &= m - 1 {
			if u := i<<6 | bits.TrailingZeros64(m); um < 0 || sup[u] < sup[um] {
				um = u
			}
		}
	}
	if um < 0 {
		return true
	}
	if sup[um] <= 0 {
		return false
	}
	sup[um]--
	return true
}

// supportBound implements Algorithm 4: the Theorem 5.5 upper bound on the
// size of any k-plex containing P ∪ {vp}, where vp ∈ C. degP must hold
// |N(v) ∩ P| for every v ∈ P ∪ C. If vpIsSeedTask is true, the Theorem 5.7
// specialisation is applied (vp is the task's seed vertex, already in P,
// with sup(vp) forced to 0 and K computed over all of C).
func (bs *boundScratch) supportBound(sg *seedGraph, k, sizeP int, P, C *bitset.Set, degP []int, vp int, vpIsSeedTask bool) int {
	return bs.supportBoundUpTo(sg, k, sizeP, P, C, degP, vp, vpIsSeedTask, math.MaxInt)
}

// supportBoundUpTo is supportBound for a caller that only compares the
// bound with limit: the greedy count stops as soon as the bound reaches
// limit, so a result >= limit may be below the full bound.
func (bs *boundScratch) supportBoundUpTo(sg *seedGraph, k, sizeP int, P, C *bitset.Set, degP []int, vp int, vpIsSeedTask bool, limit int) int {
	bs.resize(sg.nAll)
	rows := sg.rows()
	pBits := P.Words()[:sg.pWords]
	bs.initSup(pBits, k, sizeP, degP)

	var supVp int
	var vpRow []uint64
	if !vpIsSeedTask {
		// vp ∉ P: d̄_P(vp) = |P| - d_P(vp) does not count vp itself.
		supVp = k - (sizeP - degP[vp])
		vpRow = rows[vp]
	}

	// K is counted over N_C(vp) (Theorem 5.5) or all of C (Theorem 5.7,
	// where C = N(v_i) contains only neighbours of vp = v_i anyway).
	ub := sizeP + supVp
	for i, m := range C.Words()[:sg.pWords] {
		if vpRow != nil {
			m &= vpRow[i]
		}
		for ; m != 0 && ub < limit; m &= m - 1 {
			if charge(bs.sup, pBits, rows[i<<6|bits.TrailingZeros64(m)]) {
				ub++
			}
		}
	}
	return ub
}

// supportBoundSorted is the FP-style variant used by the Ours\ub+fp
// ablation: identical accounting, but candidates are first sorted by their
// non-neighbour count in P, paying the O(|C| log |C|) sort that the paper
// identifies as the weakness of FP's bound. The sorted order can only
// tighten the greedy charge assignment, so the result remains a valid
// upper bound.
func (bs *boundScratch) supportBoundSorted(sg *seedGraph, k, sizeP int, P, C *bitset.Set, degP []int, vp int) int {
	bs.resize(sg.nAll)
	rows := sg.rows()
	pBits := P.Words()[:sg.pWords]
	bs.initSup(pBits, k, sizeP, degP)
	supVp := k - (sizeP - degP[vp])

	bs.sortBuf = bs.sortBuf[:0]
	vpRow := rows[vp]
	for i, m := range C.Words()[:sg.pWords] {
		for m &= vpRow[i]; m != 0; m &= m - 1 {
			w := i<<6 | bits.TrailingZeros64(m)
			bs.sortBuf = append(bs.sortBuf, sortCand{w, sizeP - degP[w]})
		}
	}
	sort.Slice(bs.sortBuf, func(i, j int) bool {
		if bs.sortBuf[i].nonNbrs != bs.sortBuf[j].nonNbrs {
			return bs.sortBuf[i].nonNbrs < bs.sortBuf[j].nonNbrs
		}
		return bs.sortBuf[i].v < bs.sortBuf[j].v
	})

	kCount := 0
	for _, cand := range bs.sortBuf {
		if charge(bs.sup, pBits, rows[cand.v]) {
			kCount++
		}
	}
	return sizeP + supVp + kCount
}

// subtaskBound implements rule R1 (Theorem 5.7): an upper bound on the size
// of any k-plex extending the initial sub-task P_S = {v_i} ∪ S with
// candidate set C ⊆ N(v_i). degP must cover P ∪ C. The returned bound is
// min(|P_S| + |K|, min_{v∈P_S} d_{G_i}(v) + k).
func (bs *boundScratch) subtaskBound(sg *seedGraph, k, sizeP int, P, C *bitset.Set, degP []int) int {
	ub := bs.supportBound(sg, k, sizeP, P, C, degP, 0, true)
	minDeg := -1
	P.ForEach(func(u int) {
		if minDeg == -1 || sg.degGi[u] < minDeg {
			minDeg = sg.degGi[u]
		}
	})
	if minDeg >= 0 && minDeg+k < ub {
		ub = minDeg + k
	}
	return ub
}
