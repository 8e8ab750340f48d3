package kplex

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/bitset"
)

// task is one unit of branch-and-bound work: mine the set-enumeration
// subtree rooted at P, with candidate set C and exclusive set X, inside the
// shared seed subgraph sg. Tasks are what the parallel engine queues,
// steals, and what the timeout mechanism materialises.
type task struct {
	sg    *seedGraph
	P     *bitset.Set
	C     *bitset.Set
	X     *bitset.Set
	sizeP int
}

// worker holds the per-thread scratch state. The branch scratch is a stack
// with one level per nesting depth of branch frames (see branchLevel), so a
// frame's degrees and sets survive its include children and the exclude
// chain can reuse them; the bound, coloring and collapse buffers are only
// used inside one call and are shared by every level.
type worker struct {
	id  int
	eng *engine

	stats Stats

	// sc is the seed-build scratch (epoch-stamped id tables, peel
	// worklists); created on the worker's first seed and reused for every
	// later one, so steady-state seed construction never allocates.
	sc *seedScratch

	// scratchN is the current seed graph's nAll; levels are re-dimensioned
	// to it lazily, reusing their storage. depth counts the live branch
	// frames: a frame uses levels[depth] as it was on entry, and builds its
	// children's sets in the level above. Depth follows the nesting of
	// frames rather than of tasks, because a split task that overflows a
	// full deque runs inline inside a live frame (see enqueue).
	scratchN int
	levels   []*branchLevel
	depth    int
	satPC    *bitset.Set
	bs       boundScratch
	cs       colorScratch
	plexBuf  []int

	taskStart  time.Time
	splitting  bool // timeout splitting enabled for the current run
	branchTick int  // cancellation poll counter

	// mark is the seed-attribution watermark: the value of stats at the end
	// of the previous settled segment (one task, or one generation phase).
	// Only maintained when Options.OnSeedDone is set.
	mark Stats
}

// branchLevel is the scratch of one branch frame. degP, sat and pc are
// computed once per frame and stay valid along its exclude chain; degPC is
// updated as the chain drops vertices from P ∪ C. P, C and X hold the
// frame's sets when its parent built them (include and FaPlexen children);
// a task root works on the task's own sets instead.
type branchLevel struct {
	n       int         // seed-graph nAll the buffers are dimensioned for
	degP    []int       // d_P(v) for v ∈ P ∪ C ∪ X
	degPC   []int       // d_{P∪C}(v) for v ∈ P ∪ C
	sat     *bitset.Set // members u of P with d̄_P(u) = k
	pc      *bitset.Set // P ∪ C
	P, C, X *bitset.Set
	wl      []int // FaPlexen: the pivot's C non-neighbours
}

func (lv *branchLevel) resize(n int) {
	lv.n = n
	lv.degP = growInts(lv.degP, n)
	lv.degPC = growInts(lv.degPC, n)
	for _, s := range []*bitset.Set{lv.sat, lv.pc, lv.P, lv.C, lv.X} {
		s.Resize(n)
	}
}

// level returns the scratch level of depth d, sized to the current seed
// graph. Levels are created the first time a depth is reached, so a warm
// worker branches without allocating.
func (w *worker) level(d int) *branchLevel {
	for len(w.levels) <= d {
		w.levels = append(w.levels, &branchLevel{
			sat: new(bitset.Set), pc: new(bitset.Set),
			P: new(bitset.Set), C: new(bitset.Set), X: new(bitset.Set),
		})
	}
	lv := w.levels[d]
	if lv.n != w.scratchN {
		lv.resize(w.scratchN)
	}
	return lv
}

// prepare points the worker's scratch at sg. The levels follow lazily; a
// split task run inline shares its parent's seed graph, so a nested call
// never re-dimensions a level that a live frame is using.
func (w *worker) prepare(sg *seedGraph) {
	w.scratchN = sg.nAll
	w.bs.resize(sg.nAll)
	if w.satPC == nil {
		w.satPC = new(bitset.Set)
	}
	if w.satPC.Len() != sg.nAll {
		w.satPC.Resize(sg.nAll)
	}
}

// runTask executes one task to completion (or until the timeout mechanism
// re-queues its remaining branches).
func (w *worker) runTask(t *task) {
	w.prepare(t.sg)
	w.stats.Tasks++
	w.taskStart = time.Now()
	w.rootDegrees(t)
	w.branch(t.sg, t.P, t.C, t.X, t.sizeP, nil)
	if w.eng.opts.PhaseTimers {
		w.stats.BranchNS += time.Since(w.taskStart).Nanoseconds()
	}
	if tr := t.sg.track; tr != nil {
		w.settleRelease(tr)
	}
	// Retire the task's storage reference last: every read of the seed
	// graph (including the tracker settlement above) happens before the
	// group can be recycled.
	w.eng.releaseSeed(t.sg)
}

// rootDegrees is the from-scratch entry of the kernel: it counts d_P(v) for
// every v of a task's P ∪ C ∪ X into the level its root frame starts on.
// Every other frame gets d_P seeded by its parent (seedDegrees).
func (w *worker) rootDegrees(t *task) {
	rows := t.sg.rows()
	pBits, cBits := t.P.Words(), t.C.Words()
	inP := pBits[:t.sg.pWords]
	degP := w.level(w.depth).degP
	for i, x := range t.X.Words() {
		for m := pBits[i] | cBits[i] | x; m != 0; m &= m - 1 {
			v := i<<6 | bits.TrailingZeros64(m)
			degP[v] = bitset.AndCount(rows[v], inP)
		}
	}
}

// recurse either descends into the child branch directly or, when the
// current task has exceeded τ_time, materialises it as a new task so that
// idle workers can steal it (Section 6's straggler elimination). The child's
// sets live in the worker's scratch, so a split copies them out; the split
// task recomputes its degrees from scratch.
func (w *worker) recurse(sg *seedGraph, P, C, X *bitset.Set, sizeP int, parent *branchLevel) {
	if w.splitting && time.Since(w.taskStart) > w.eng.opts.TaskTimeout {
		w.stats.Splits++
		w.eng.pushTask(w, &task{sg: sg, P: P.Clone(), C: C.Clone(), X: X.Clone(), sizeP: sizeP})
		return
	}
	w.branch(sg, P, C, X, sizeP, parent)
}

// branch is Algorithm 3. The exclude branch (line 20) is executed as a loop
// iteration rather than a recursive call. It keeps P, so d_P, the
// saturated set and the refine of lines 2-3 carry over from the frame's
// first iteration, and d_{P∪C} only loses the excluded vertex. Children are
// built in the next scratch level with their d_P seeded from this frame's,
// and pass it as parent; the child then derives d_{P∪C} from the parent's
// (countPC). A task root (parent == nil) enters with d_P counted by
// rootDegrees and counts d_{P∪C} from scratch.
func (w *worker) branch(sg *seedGraph, P, C, X *bitset.Set, sizeP int, parent *branchLevel) {
	lv := w.level(w.depth)
	w.depth++
	defer func() { w.depth-- }()

	opts := &w.eng.opts
	k, q := opts.K, opts.Q
	// The heavy per-vertex operations below (refine counts, pivot
	// degrees) run the word-slice kernels on the flat candidate-space
	// rows: rows[v] is pWords long. P, C and P∪C lie in the candidate
	// space, so their loops stop at pWords; X also holds V' vertices and
	// is walked in full.
	rows := sg.rows()
	pw := sg.pWords
	pBits, cBits, xBits := P.Words()[:pw], C.Words()[:pw], X.Words()
	degP, degPC := lv.degP, lv.degPC
	satBits, pcBits := lv.sat.Words(), lv.pc.Words()

	var sizeC int
	for first := true; ; first = false {
		w.stats.Branches++
		w.branchTick++
		if w.branchTick&1023 == 0 && w.eng.cancelled() {
			return
		}

		if first {
			// --- Lines 2-3: refine C and X to vertices v with P ∪ {v} a
			// k-plex: d_P(v) >= |P|+1-k and v adjacent to every saturated
			// member of P. Also detect an invalid P (possible after the
			// multi-vertex additions of the FaPlexen branching).
			clear(satBits)
			for i, m := range pBits {
				for ; m != 0; m &= m - 1 {
					u := i<<6 | bits.TrailingZeros64(m)
					switch d := degP[u]; {
					case d < sizeP-k:
						return
					case d == sizeP-k:
						satBits[i] |= m & -m
					}
				}
			}
			for i, m := range satBits[:pw] {
				for ; m != 0; m &= m - 1 {
					u := i<<6 | bits.TrailingZeros64(m)
					for j, a := range rows[u] {
						cBits[j] &= a
					}
					for j, a := range sg.adj[u].Words() {
						xBits[j] &= a
					}
				}
			}
			minNeed := sizeP + 1 - k
			sizeC = refineByDegree(cBits, degP, minNeed)
			refineByDegree(xBits, degP, minNeed)
		}

		// --- Lines 4-6: leaf.
		if sizeC == 0 {
			if sizeP >= q && X.Empty() {
				w.emit(sg, P)
			}
			return
		}

		// --- Lines 7-10: pivot selection over P ∪ C. M0 = min degree in
		// G[P∪C]; M = max d̄_P within M0; prefer a pivot from P.
		sizePC := sizeP + sizeC
		if first {
			clear(pcBits[pw:])
			for i := range pw {
				pcBits[i] = pBits[i] | cBits[i]
			}
			lv.countPC(rows, pw, sizePC, parent)
		}
		minDeg := sizePC
		vp0, vp0InP, bestNon := -1, false, -1
		for i, m := range pcBits[:pw] {
			for ; m != 0; m &= m - 1 {
				v := i<<6 | bits.TrailingZeros64(m)
				d := degPC[v]
				if d > minDeg {
					continue
				}
				inP := pBits[i]&(m&-m) != 0
				non := sizeP - degP[v]
				// M = argmax d̄_P within M0 (line 8); within M prefer P
				// members (line 9); remaining ties go to the smallest id.
				if d < minDeg || non > bestNon || (non == bestNon && inP && !vp0InP) {
					minDeg, vp0, vp0InP, bestNon = d, v, inP, non
				}
			}
		}

		// --- Lines 11-14: if even the minimum-degree vertex meets the
		// k-plex threshold, P ∪ C is a k-plex; emit it if maximal and big
		// enough, then stop.
		if minDeg >= sizePC-k {
			w.stats.Collapses++
			w.maybeEmitCollapse(sg, lv, X, sizePC, q)
			return
		}

		// --- Lines 15-16 / the Ours_P variant.
		vp := vp0
		if vp0InP {
			if opts.Branching == BranchFaPlexen {
				w.branchFaPlexen(sg, lv, P, C, X, sizeP, vp0)
				return
			}
			w.stats.Repicks++
			vp = w.repick(sg, lv, C, P, sizeP, vp0)
		}

		// --- Lines 17-19: include branch, guarded by the Eq (3) bound
		// min(ub, d_{P∪C}(vp0) + k) >= q (none under UBNone). Only the
		// comparison matters, so ub is skipped when the degree term already
		// fails and Algorithm 4 stops counting once it reaches q.
		include := opts.UpperBound == UBNone || degPC[vp0]+k >= q
		if include {
			switch opts.UpperBound {
			case UBOurs:
				include = w.bs.supportBoundUpTo(sg, k, sizeP, P, C, degP, vp, false, q) >= q
			case UBSortFP:
				include = w.bs.supportBoundSorted(sg, k, sizeP, P, C, degP, vp) >= q
			case UBColor:
				include = w.cs.colorBound(sg, k, sizeP, C, vp) >= q
			}
		}
		if include {
			child := w.level(w.depth)
			child.P.Copy(P)
			child.P.Add(vp)
			child.C.Copy(C)
			child.C.Remove(vp)
			child.X.Copy(X)
			w.applyPair(sg, child.C, child.X, vp)
			seedDegrees(child.degP, degP, child.P, child.C, child.X, sg.adj[vp].Words())
			w.recurse(sg, child.P, child.C, child.X, sizeP+1, lv)
		} else {
			w.stats.UBPruned++
		}

		// --- Line 20: exclude branch, continued in this frame. d_P(vp) is
		// already known from its C membership; P ∪ C loses vp, so its
		// neighbours there lose one degree.
		C.Remove(vp)
		X.Add(vp)
		sizeC--
		lv.pc.Remove(vp)
		for i, a := range rows[vp] {
			for m := a & pcBits[i]; m != 0; m &= m - 1 {
				degPC[i<<6|bits.TrailingZeros64(m)]--
			}
		}
	}
}

// countPC fills degPC = d_{P∪C} over the frame's P ∪ C (lv.pc, of size
// sizePC). A child derives the degrees from its parent's by one row sweep
// per dropped vertex, d_{P∪C}(v) = parent's - |N(v) ∩ dropped|; counting
// from scratch costs one row pass per kept vertex, so the child takes
// whichever needs fewer passes. A task root always counts from scratch.
func (lv *branchLevel) countPC(rows [][]uint64, pw, sizePC int, parent *branchLevel) {
	pcBits, degPC := lv.pc.Words()[:pw], lv.degPC
	if parent != nil {
		ppc := parent.pc.Words()[:pw]
		dropped := 0
		for i, m := range ppc {
			dropped += bits.OnesCount64(m &^ pcBits[i])
		}
		if dropped < sizePC {
			for i, m := range pcBits {
				for ; m != 0; m &= m - 1 {
					v := i<<6 | bits.TrailingZeros64(m)
					degPC[v] = parent.degPC[v]
				}
			}
			for i, m := range ppc {
				for m &^= pcBits[i]; m != 0; m &= m - 1 {
					for j, a := range rows[i<<6|bits.TrailingZeros64(m)] {
						for n := a & pcBits[j]; n != 0; n &= n - 1 {
							degPC[j<<6|bits.TrailingZeros64(n)]--
						}
					}
				}
			}
			return
		}
	}
	for i, m := range pcBits {
		for ; m != 0; m &= m - 1 {
			v := i<<6 | bits.TrailingZeros64(m)
			degPC[v] = bitset.AndCount(rows[v], pcBits)
		}
	}
}

// refineByDegree drops from the set with backing words set every vertex
// whose degree into P (degP) is below minNeed and returns the survivors'
// count.
func refineByDegree(set []uint64, degP []int, minNeed int) int {
	n := 0
	for i, m := range set {
		for ; m != 0; m &= m - 1 {
			if degP[i<<6|bits.TrailingZeros64(m)] < minNeed {
				set[i] &^= m & -m
				continue
			}
			n++
		}
	}
	return n
}

// seedDegrees writes dst[v] = src[v] + [v ∈ nbr] for every v of P ∪ C ∪ X:
// the degrees into P from those into the parent's P when the child's P
// gained the vertex whose adjacency row is nbr (a nil nbr adds nothing).
// dst may alias src.
func seedDegrees(dst, src []int, P, C, X *bitset.Set, nbr []uint64) {
	pBits, cBits := P.Words(), C.Words()
	for i, x := range X.Words() {
		m := pBits[i] | cBits[i] | x
		var a uint64
		if nbr != nil {
			a = nbr[i]
		}
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := i<<6 | b
			dst[v] = src[v] + int(a>>uint(b)&1)
		}
	}
}

// repick implements Algorithm 3 line 16: choose a new pivot among the C
// non-neighbours of the P-pivot vp0, using the same (min degree in G[P∪C],
// then max d̄_P) rules over the frame's degrees in lv. The set is non-empty
// whenever the collapse check of line 11 failed, but we fall back to an
// arbitrary candidate defensively.
func (w *worker) repick(sg *seedGraph, lv *branchLevel, C, P *bitset.Set, sizeP, vp0 int) int {
	best, bestDeg, bestNon := -1, 0, -1
	avp := sg.adj[vp0].Words()
	for i, m := range C.Words()[:sg.pWords] {
		for m &^= avp[i]; m != 0; m &= m - 1 {
			v := i<<6 | bits.TrailingZeros64(m)
			d := lv.degPC[v]
			non := sizeP - lv.degP[v]
			if best == -1 || d < bestDeg || (d == bestDeg && non > bestNon) {
				best, bestDeg, bestNon = v, d, non
			}
		}
	}
	if best == -1 {
		best = C.Any()
	}
	return best
}

// applyPair intersects C and X with the pair-compatibility row of a vertex
// that just joined P (rule R2, Theorems 5.13-5.15). V'-range bits in the
// row are always set, so X-only vertices are unaffected.
func (w *worker) applyPair(sg *seedGraph, C, X *bitset.Set, added int) {
	if sg.pair == nil || added >= sg.nv {
		return
	}
	row := sg.pair[added]
	C.And(row)
	X.And(row)
}

// maybeEmitCollapse handles Algorithm 3 lines 12-13: P ∪ C (lv.pc, with
// degrees in lv.degPC) is a k-plex; emit it when it is maximal against X
// and has at least q vertices.
func (w *worker) maybeEmitCollapse(sg *seedGraph, lv *branchLevel, X *bitset.Set, sizePC, q int) {
	if sizePC < q {
		return
	}
	k := w.eng.opts.K
	rows := sg.rows()
	pw := sg.pWords
	pcBits := lv.pc.Words()[:pw]
	satPCBits := w.satPC.Words()[:pw]
	for i, m := range pcBits {
		s := uint64(0)
		for ; m != 0; m &= m - 1 {
			if lv.degPC[i<<6|bits.TrailingZeros64(m)] == sizePC-k {
				s |= m & -m
			}
		}
		satPCBits[i] = s
	}
	need := sizePC + 1 - k
	for i, m := range X.Words() {
		for ; m != 0; m &= m - 1 {
			x := i<<6 | bits.TrailingZeros64(m)
			if bitset.AndCount(rows[x], pcBits) >= need && bitset.Subset(satPCBits, rows[x]) {
				return // extendable by x: not maximal
			}
		}
	}
	w.emit(sg, lv.pc)
}

// branchFaPlexen implements the Ours_P variant: when the pivot vp lies in
// P, branch over its C non-neighbours W = {w_1 < w_2 < ... < w_l} with the
// s+1 disjoint branches of Eq (4)-(6), where s = sup_P(vp). Branch i
// includes w_1..w_{i-1} and excludes w_i; the final branch includes
// w_1..w_s and discards the rest of W (their budgets are exhausted, so the
// child's refinement would drop them; they are parked in X for safety).
// Every child's degrees are seeded from this frame's, one added vertex at
// a time.
func (w *worker) branchFaPlexen(sg *seedGraph, lv *branchLevel, P, C, X *bitset.Set, sizeP, vp int) {
	k := w.eng.opts.K
	s := k - (sizeP - lv.degP[vp]) // sup_P(vp) >= 1 here (see below)
	// wl lives in this frame's level: the children below use the levels
	// above it.
	wl := lv.wl[:0]
	avp := sg.adj[vp].Words()
	for i, m := range C.Words()[:sg.pWords] {
		for m &^= avp[i]; m != 0; m &= m - 1 {
			wl = append(wl, i<<6|bits.TrailingZeros64(m))
		}
	}
	lv.wl = wl
	// The collapse check failed, so vp has more than k non-neighbours in
	// P∪C; since P is a k-plex, at least s+1 of them are in C: len(wl) > s.
	// A saturated vp (s == 0) cannot reach here because refinement removed
	// all of its C non-neighbours. Guard anyway.
	if s < 0 {
		s = 0
	}
	if s >= len(wl) {
		s = len(wl) - 1
	}
	if len(wl) == 0 {
		return
	}

	// Branch i = 1..s: include w_1..w_{i-1}, exclude w_i.
	child := w.level(w.depth)
	for i := 1; i <= s; i++ {
		newP, newC, newX := child.P, child.C, child.X
		newP.Copy(P)
		newC.Copy(C)
		newX.Copy(X)
		for j := 0; j < i-1; j++ {
			newP.Add(wl[j])
			newC.Remove(wl[j])
			w.applyPair(sg, newC, newX, wl[j])
		}
		newC.Remove(wl[i-1])
		newX.Add(wl[i-1])
		seedDegrees(child.degP, lv.degP, newP, newC, newX, nil)
		for _, u := range wl[:i-1] {
			seedDegrees(child.degP, child.degP, newP, newC, newX, sg.adj[u].Words())
		}
		w.recurse(sg, newP, newC, newX, sizeP+i-1, lv)
	}
	// Final branch: include w_1..w_s, drop w_{s+1}..w_l. Reuses the
	// caller's sets (tail position).
	for j := 0; j < s; j++ {
		P.Add(wl[j])
		C.Remove(wl[j])
		w.applyPair(sg, C, X, wl[j])
	}
	for j := s; j < len(wl); j++ {
		C.Remove(wl[j])
		X.Add(wl[j])
	}
	seedDegrees(child.degP, lv.degP, P, C, X, nil)
	for _, u := range wl[:s] {
		seedDegrees(child.degP, child.degP, P, C, X, sg.adj[u].Words())
	}
	w.recurse(sg, P, C, X, sizeP+s, lv)
}

// emit reports a maximal k-plex. P holds local ids; they are translated
// through the seed graph's mapping and the engine's relabel/core mappings
// back to the caller's vertex ids.
func (w *worker) emit(sg *seedGraph, P *bitset.Set) {
	w.stats.Emitted++
	if size := int64(P.Count()); size > w.stats.MaxPlexSize {
		w.stats.MaxPlexSize = size
	}
	if w.eng.opts.FirstOnly {
		defer w.eng.stop.Store(true)
	}
	cb, cbSeed := w.eng.opts.OnPlex, w.eng.opts.OnPlexSeed
	if cb == nil && cbSeed == nil {
		return
	}
	w.plexBuf = P.AppendTo(w.plexBuf[:0])
	for i, v := range w.plexBuf {
		w.plexBuf[i] = int(w.eng.toInput[sg.orig[v]])
	}
	sort.Ints(w.plexBuf)
	if cb != nil {
		cb(w.plexBuf)
	}
	if cbSeed != nil {
		cbSeed(int(sg.seed), w.plexBuf)
	}
}
