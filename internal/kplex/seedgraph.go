package kplex

import (
	"slices"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// seedGraph is the per-seed working graph G_i of Algorithm 2: the seed
// vertex v_i, its later neighbours N¹ (the candidate pool C_S), its later
// 2-hop vertices N² (the S-enumeration pool), and the earlier 2-hop
// vertices V' that only ever appear in the exclusive set X. Vertices are
// relabelled into a compact local id space:
//
//	0            — the seed v_i
//	1..|N¹|      — later neighbours, ascending global id
//	..nv-1       — later 2-hop vertices (N²), ascending global id
//	nv..nAll-1   — earlier 2-hop vertices (V'), X-only
//
// Adjacency is stored as one bitset row per local vertex over the full
// local domain. Rows of candidate-space vertices (id < nv) carry bits for
// both candidate-space and V' neighbours so that degree bookkeeping during
// branching covers X; V' rows carry candidate-space bits only (two X
// vertices are never compared against each other).
//
// All of a seedGraph's storage (the rows, the id tables, even the struct
// itself) lives in a pooled seedStorage; the engine recycles it once the
// group's last task retires, which is what keeps the steady-state seed
// pipeline allocation-free.
type seedGraph struct {
	seed   int32   // global (degeneracy-relabelled) id of v_i
	nv     int     // 1 + |N¹| + |N²|: vertices allowed in P ∪ C
	pWords int     // number of 64-bit words covering the candidate space
	nAll   int     // nv + |V'|
	orig   []int32 // local id -> global id, len nAll
	adj    []*bitset.Set
	// rowP[i] is adj[i]'s candidate-space word prefix as a raw slice into
	// the arena's contiguous store: the branch hot loops (refine counts,
	// pivot selection, the collapse subset test) run the bit-parallel
	// kernels on these flat rows instead of chasing the Set headers.
	rowP  [][]uint64
	degGi []int // degree within candidate space (d_{G_i}), len nv

	nbrSeed *bitset.Set // N¹ as a bitset (the initial C_S)
	hop2    []int       // local ids of N² vertices, ascending
	hop2Set *bitset.Set // same as a bitset
	xBase   *bitset.Set // V' vertices as a bitset (bits nv..nAll)

	// pair[u], when pair pruning is enabled, is the compatibility row of
	// Theorems 5.13-5.15: bit v is clear iff u and v provably cannot
	// co-occur in any k-plex of size >= q. Bits in the V' range are always
	// set so that X ∩= pair[u] is a no-op for X-only vertices.
	pair []*bitset.Set

	// track counts the group's outstanding tasks for the seed-completion
	// hook; nil unless Options.OnSeedDone is set (see checkpoint.go).
	track *seedTracker

	// store is the pooled backing storage; nil for test-built seed graphs
	// that bypass the engine's recycling.
	store *seedStorage
}

// seedStorage is the recyclable backing of one seedGraph: the struct
// header, the bitset arena every row is carved from, and the id tables.
// Slices only ever grow, so a storage that has seen the largest group of a
// run builds every later group without touching the heap.
type seedStorage struct {
	sg    seedGraph
	arena bitset.Arena
	orig  []int32
	adj   []*bitset.Set
	rowP  [][]uint64
	degGi []int
	hop2  []int
	pair  []*bitset.Set

	// refs counts the group's live references: one for the generation
	// phase plus one per emitted (or split) task. The worker that drops
	// the last reference hands the storage back to the engine's pool.
	refs atomic.Int32
}

// retain registers one more task referencing the seed graph. It must
// happen before the task becomes visible to other workers.
func (sg *seedGraph) retain() {
	if sg.store != nil {
		sg.store.refs.Add(1)
	}
}

// release drops one reference and reports whether the caller now owns the
// storage (and must recycle it). Test-built seed graphs have no storage
// and are left to the garbage collector.
func (sg *seedGraph) release() bool {
	return sg.store != nil && sg.store.refs.Add(-1) == 0
}

// seedScratch is per-worker working memory for seed-graph construction:
// epoch-stamped global→local id and counter tables sized to the working
// graph (a stamp equal to the current epoch marks a live entry, so no
// per-seed clearing is needed), plus the reusable worklists of the
// Corollary 5.2 peel and the 2-hop sweep. One scratch serves one worker;
// it is reused the moment build returns.
type seedScratch struct {
	n     int    // working-graph size the tables cover
	epoch uint32 // current build's stamp; 0 means "never stamped"

	mark    []uint32 // N¹ membership (== epoch while alive in the peel)
	localEp []uint32 // stamp validating localID
	localID []int32  // global id -> local id
	cntEp   []uint32 // stamp validating cnt for 2-hop candidates
	cnt     []int32  // common-neighbour counters
	seedEp  []uint32 // seed-adjacency membership

	// Dense-peel scratch. denseEp/denseID are a dedicated global→matrix-row
	// mapping: they cannot share localEp/localID because peeled-out vertices
	// would keep a live stamp into the same epoch that later validates
	// membership during adjacency construction.
	denseEp    []uint32
	denseID    []int32
	denseArena bitset.Arena

	n1      []int32 // surviving later neighbours
	queue   []int32 // Corollary 5.2 dirty worklist
	touched []int32 // 2-hop candidates with a stamped counter
	n2, xs  []int32

	adjC      []*bitset.Set // pair-matrix temp rows (N(u) ∩ C_S)
	adjCArena bitset.Arena
}

func newSeedScratch(n int) *seedScratch {
	sc := &seedScratch{}
	sc.ensure(n)
	return sc
}

// ensure grows the stamp tables to cover a working graph of n vertices.
func (sc *seedScratch) ensure(n int) {
	if n <= sc.n {
		return
	}
	sc.n = n
	sc.mark = make([]uint32, n)
	sc.localEp = make([]uint32, n)
	sc.localID = make([]int32, n)
	sc.cntEp = make([]uint32, n)
	sc.cnt = make([]int32, n)
	sc.seedEp = make([]uint32, n)
	sc.denseEp = make([]uint32, n)
	sc.denseID = make([]int32, n)
}

// bumpEpoch starts a new build generation. On the (astronomically rare)
// wrap-around every table is cleared so stale stamps can never collide
// with a live epoch; 0 stays reserved for "never stamped".
func (sc *seedScratch) bumpEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		clear(sc.localEp)
		clear(sc.cntEp)
		clear(sc.seedEp)
		clear(sc.denseEp)
		sc.epoch = 1
	}
}

// grow helpers: reslice when capacity suffices, allocate only on growth.

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growSets(s []*bitset.Set, n int) []*bitset.Set {
	if cap(s) < n {
		return make([]*bitset.Set, n)
	}
	return s[:n]
}

func growRows(s [][]uint64, n int) [][]uint64 {
	if cap(s) < n {
		return make([][]uint64, n)
	}
	return s[:n]
}

// buildSeedGraph constructs G_i for seed s over the degeneracy-relabelled
// graph g ("later" is the numeric comparison u > s), with fresh scratch and
// storage per call. Tests and the one-shot paths use it; the engine goes
// through seedScratch.build with pooled storage instead.
func buildSeedGraph(g *graph.Graph, s int, opts *Options) *seedGraph {
	return newSeedScratch(g.N()).build(g, nil, s, opts, &seedStorage{}, nil)
}

// build constructs G_i for seed s into st's recycled storage. prep, when
// non-nil, supplies the precomputed later-neighbour offsets of the working
// graph; otherwise the split is recovered from the sorted adjacency row.
// Returns nil when the pruned candidate space is too small to hold any
// q-vertex k-plex (st is then untouched and immediately reusable). The
// returned seedGraph aliases st and carries one reference (the caller's
// generation unit). stats, when non-nil, accrues build-path counters
// (currently Stats.DenseBuilds).
func (sc *seedScratch) build(g *graph.Graph, prep *graph.Prepared, s int, opts *Options, st *seedStorage, stats *Stats) *seedGraph {
	k, q := opts.K, opts.Q
	sc.ensure(g.N())
	sc.bumpEpoch()
	ep := sc.epoch

	// Later/earlier neighbour split. A q-vertex k-plex whose earliest
	// member is v_i has at least q-k of v_i's neighbours, all later than
	// v_i, so the group is empty whenever |N¹| < q-k.
	var later, earlier []int32
	if prep != nil {
		later, earlier = prep.LaterNeighbors(s), prep.EarlierNeighbors(s)
	} else {
		row := g.Neighbors(s)
		cut := len(row)
		for i, u := range row {
			if u > int32(s) {
				cut = i
				break
			}
		}
		later, earlier = row[cut:], row[:cut]
	}
	n1 := append(sc.n1[:0], later...)
	sc.n1 = n1
	if len(n1) < q-k {
		return nil
	}
	for _, u := range n1 {
		sc.mark[u] = ep
	}

	// Corollary 5.2 on N¹, peeled to a fixed point: u ∈ N¹ needs at least
	// q-2k common neighbours with v_i inside the surviving N¹. Two
	// interchangeable kernels reach the same fixed point (core-style peels
	// are confluent: the survivor set is the unique maximal subset in which
	// every vertex meets the threshold, independent of removal order):
	//
	//   - dense (|N¹| ≤ DefaultDenseCrossover): materialise the induced
	//     adjacency of N¹ as a row-major bit matrix and peel with
	//     word-parallel AND/popcount sweeps (see densePeel);
	//   - merge: counts seeded by one sorted-adjacency merge per vertex and
	//     maintained incrementally — removing u decrements its surviving
	//     neighbours, and only the ones that just crossed the threshold
	//     join the dirty worklist, so converged vertices are never
	//     rescanned.
	if thrN1 := q - 2*k; thrN1 > 0 {
		if len(n1) <= opts.denseCeiling() {
			n1 = sc.densePeel(g, n1, thrN1, ep)
			if stats != nil {
				stats.DenseBuilds++
			}
		} else {
			queue := sc.queue[:0]
			for _, u := range n1 {
				c := graph.CountCommon(g.Neighbors(int(u)), n1)
				sc.cnt[u] = int32(c)
				if c < thrN1 {
					queue = append(queue, u)
				}
			}
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				if sc.mark[u] != ep {
					continue
				}
				sc.mark[u] = 0
				for _, w := range g.Neighbors(int(u)) {
					if sc.mark[w] != ep {
						continue
					}
					if sc.cnt[w]--; sc.cnt[w] == int32(thrN1)-1 {
						queue = append(queue, w)
					}
				}
			}
			sc.queue = queue
			kept := n1[:0]
			for _, u := range n1 {
				if sc.mark[u] == ep {
					kept = append(kept, u)
				}
			}
			n1 = kept
		}
		sc.n1 = n1
		if len(n1) < q-k {
			return nil
		}
	}

	// Later 2-hop vertices reached through surviving N¹, pruned by the
	// Corollary 5.2 threshold q-2k+2; and earlier 2-hop vertices V' pruned
	// by the Theorem 5.1 thresholds. Counters are epoch-stamped per
	// candidate; touched lists who got one.
	for _, u := range g.Neighbors(s) {
		sc.seedEp[u] = ep
	}
	touched := sc.touched[:0]
	for _, u := range n1 {
		for _, w := range g.Neighbors(int(u)) {
			if int(w) == s || sc.mark[w] == ep {
				continue
			}
			if sc.cntEp[w] != ep {
				sc.cntEp[w] = ep
				sc.cnt[w] = 0
				touched = append(touched, w)
			}
			sc.cnt[w]++
		}
	}
	sc.touched = touched

	thr2 := q - 2*k + 2
	n2, xs := sc.n2[:0], sc.xs[:0]
	for _, w := range touched {
		if sc.seedEp[w] == ep {
			continue // direct neighbours are not 2-hop vertices
		}
		if int(sc.cnt[w]) >= thr2 {
			if w > int32(s) {
				n2 = append(n2, w)
			} else {
				xs = append(xs, w)
			}
		}
	}
	// Earlier direct neighbours of the seed: Theorem 5.1(ii) threshold
	// q-2k (no structural requirement when it is non-positive).
	thrAdj := q - 2*k
	for _, u := range earlier {
		c := 0
		if sc.cntEp[u] == ep {
			c = int(sc.cnt[u])
		}
		if thrAdj <= 0 || c >= thrAdj {
			xs = append(xs, u)
		}
	}
	slices.Sort(n2)
	slices.Sort(xs)

	// For k=1 (maximal cliques) no 2-hop candidate can join P, and the
	// pruning threshold already removed them via |S| <= k-1 = 0; keep N²
	// empty to skip pointless S enumeration.
	if k == 1 {
		n2 = n2[:0]
	}
	sc.n2, sc.xs = n2, xs

	nv := 1 + len(n1) + len(n2)
	if nv < q {
		return nil
	}
	nAll := nv + len(xs)

	rows := nAll + 3 // adjacency + nbrSeed + hop2Set + xBase
	if opts.UsePairPruning {
		rows += nv
	}
	st.arena.Reset(nAll, rows)
	st.orig = growInt32s(st.orig, nAll)
	st.adj = growSets(st.adj, nAll)
	st.degGi = growInts(st.degGi, nv)
	st.hop2 = growInts(st.hop2, len(n2))
	st.refs.Store(1)

	sg := &st.sg
	sg.seed = int32(s)
	sg.nv = nv
	sg.pWords = (nv + 63) / 64
	sg.nAll = nAll
	sg.orig = st.orig
	sg.adj = st.adj
	sg.degGi = st.degGi
	sg.hop2 = st.hop2
	sg.pair = nil
	sg.track = nil
	sg.store = st

	sg.orig[0] = int32(s)
	sc.localEp[s] = ep
	sc.localID[s] = 0
	at := int32(1)
	for _, u := range n1 {
		sg.orig[at] = u
		sc.localEp[u] = ep
		sc.localID[u] = at
		at++
	}
	for i, u := range n2 {
		sg.orig[at] = u
		sc.localEp[u] = ep
		sc.localID[u] = at
		sg.hop2[i] = int(at)
		at++
	}
	for _, u := range xs {
		sg.orig[at] = u
		sc.localEp[u] = ep
		sc.localID[u] = at
		at++
	}

	for i := 0; i < nAll; i++ {
		sg.adj[i] = st.arena.New()
	}
	for li := 0; li < nv; li++ {
		for _, w := range g.Neighbors(int(sg.orig[li])) {
			if sc.localEp[w] == ep {
				lj := int(sc.localID[w])
				sg.adj[li].Add(lj)
				if lj >= nv {
					// Symmetric bit so V' rows can be refined against P.
					sg.adj[lj].Add(li)
				}
			}
		}
	}
	// Flat candidate-space prefixes of the adjacency rows, carved straight
	// out of the arena's contiguous store (adj rows are the first nAll
	// carved, so row i starts at word i*wpr). Branch's hot loops run the
	// bit-parallel kernels on these instead of the Set headers.
	st.rowP = growRows(st.rowP, nAll)
	sg.rowP = st.rowP
	words, wpr := st.arena.Rows(), st.arena.WordsPerRow()
	for i := 0; i < nAll; i++ {
		sg.rowP[i] = words[i*wpr : i*wpr+sg.pWords]
	}
	// The candidate space is the local-id prefix [0, nv), so d_{G_i} is a
	// prefix popcount — no mask bitset.
	for i := 0; i < nv; i++ {
		sg.degGi[i] = sg.adj[i].CountUpto(nv)
	}

	sg.nbrSeed = st.arena.New()
	for i := 1; i <= len(n1); i++ {
		sg.nbrSeed.Add(i)
	}
	sg.hop2Set = st.arena.New()
	for _, h := range sg.hop2 {
		sg.hop2Set.Add(h)
	}
	sg.xBase = st.arena.New()
	for i := nv; i < nAll; i++ {
		sg.xBase.Add(i)
	}

	if opts.UsePairPruning {
		sg.buildPairMatrix(sc, k, q)
	}
	return sg
}

// rows returns the flat candidate-space prefix rows, deriving them from
// the Set headers on first use for test-built seed graphs that bypass the
// engine's arena path (build populates rowP directly).
func (sg *seedGraph) rows() [][]uint64 {
	if sg.rowP == nil {
		sg.rowP = make([][]uint64, sg.nAll)
		for i, s := range sg.adj {
			sg.rowP[i] = s.Words()[:sg.pWords]
		}
	}
	return sg.rowP
}

// densePeel is the bit-parallel kernel of the Corollary 5.2 fixed point,
// taken when N¹ fits under the dense ceiling: the induced adjacency of
// the later neighbours is materialised as a row-major bit matrix in the
// worker scratch and peeled with word-parallel AND/popcount sweeps
// (bitset.Peel). Removed vertices get their mark stamp cleared exactly as
// the merge path does — the 2-hop sweep keys on it — and the survivor
// slice reuses n1's backing, so the two kernels are interchangeable
// downstream.
func (sc *seedScratch) densePeel(g *graph.Graph, n1 []int32, thr int, ep uint32) []int32 {
	n := len(n1)
	if n == 0 {
		return n1
	}
	sc.denseArena.Reset(n, n+1) // n adjacency rows + the alive row
	stride := sc.denseArena.WordsPerRow()
	words := sc.denseArena.Rows()[: (n+1)*stride : (n+1)*stride]
	for i, u := range n1 {
		sc.denseEp[u] = ep
		sc.denseID[u] = int32(i)
	}
	for i, u := range n1 {
		row := words[i*stride : (i+1)*stride]
		for _, w := range g.Neighbors(int(u)) {
			if sc.denseEp[w] == ep {
				j := sc.denseID[w]
				row[j>>6] |= 1 << uint(j&63)
			}
		}
	}
	alive := words[n*stride:]
	for i := range alive {
		alive[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		alive[stride-1] = 1<<uint(tail) - 1
	}
	bitset.Peel(words[:n*stride], stride, n, alive, thr)
	kept := n1[:0]
	for i, u := range n1 {
		if alive[i>>6]&(1<<uint(i&63)) != 0 {
			kept = append(kept, u)
		} else {
			sc.mark[u] = 0
		}
	}
	return kept
}

// buildPairMatrix fills sg.pair with the compatibility rows of Theorems
// 5.13 (N²×N²), 5.14 (N²×N¹) and 5.15 (N¹×N¹). The common-neighbour counts
// are taken inside C_S = N¹ as the theorems require, with the theorem-
// specific exclusions of the pair's own members. Pair rows live in the
// seed storage's arena (they share the group's lifetime); the temporary
// N(u) ∩ C_S rows come from the worker scratch.
func (sg *seedGraph) buildPairMatrix(sc *seedScratch, k, q int) {
	nv, nAll := sg.nv, sg.nAll
	st := sg.store
	st.pair = growSets(st.pair, nv)
	sg.pair = st.pair
	for i := 0; i < nv; i++ {
		sg.pair[i] = st.arena.New()
		sg.pair[i].Fill()
	}

	// Per-threshold constants; a non-positive threshold never prunes.
	max0 := func(x int) int {
		if x < 0 {
			return 0
		}
		return x
	}
	thr1313Adj := q - k - 2*max0(k-2)                // 5.13, (u1,u2) ∈ E
	thr1313Non := q - k - 2*max0(k-3)                // 5.13, (u1,u2) ∉ E
	thr1514Adj := q - 2*k - max0(k-2)                // 5.14, adjacent
	thr1514Non := q - k - max0(k-2) - maxInt(k-2, 1) // 5.14, non-adjacent
	thr1515Adj := q - 3*k                            // 5.15, adjacent
	thr1515Non := q - k - 2*maxInt(k-1, 1)           // 5.15, non-adjacent

	// adjC[u] = N(u) ∩ C_S as a bitset for fast pair intersection counts.
	sc.adjCArena.Reset(nAll, nv)
	sc.adjC = growSets(sc.adjC, nv)
	adjC := sc.adjC
	for u := 1; u < nv; u++ {
		adjC[u] = sc.adjCArena.New()
		adjC[u].Copy(sg.adj[u])
		adjC[u].And(sg.nbrSeed)
	}

	n1hi := 1 + sg.nbrSeed.Count() // first N² local id
	for u := 1; u < nv; u++ {
		for v := u + 1; v < nv; v++ {
			cn := adjC[u].IntersectionCount(adjC[v])
			adj := sg.adj[u].Contains(v)
			uInC, vInC := u < n1hi, v < n1hi
			var thr int
			switch {
			case !uInC && !vInC: // both N² (Theorem 5.13)
				if adj {
					thr = thr1313Adj
				} else {
					thr = thr1313Non
				}
			case uInC != vInC: // one in N¹, one in N² (Theorem 5.14)
				// The theorem counts common neighbours in C_S minus the N¹
				// member of the pair, but a vertex is never its own
				// neighbour, so the raw intersection already excludes it.
				if adj {
					thr = thr1514Adj
				} else {
					thr = thr1514Non
				}
			default: // both N¹ (Theorem 5.15): counts in C_S − {u1, u2}
				// u, v cannot be their own common neighbours, and the
				// intersection cannot contain u or v (no self-loops), so
				// cn is already over C_S − {u, v}.
				if adj {
					thr = thr1515Adj
				} else {
					thr = thr1515Non
				}
			}
			if cn < thr {
				sg.pair[u].Remove(v)
				sg.pair[v].Remove(u)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
