package kplex

import (
	"slices"

	"repro/internal/graph"
)

// ReduceCTCP applies the core-truss co-pruning style reduction that kPlexS
// (Chang, Xu, Strash; VLDB 2022) introduced for maximum k-plex search,
// adapted here to size-constrained enumeration. Two rules run to a joint
// fixed point:
//
//   - vertex rule (Theorem 3.5): drop v when d(v) < q-k;
//   - edge rule (Theorem 5.1(ii)): drop edge (u,v) when
//     |N(u) ∩ N(v)| < q-2k, because two adjacent vertices of any k-plex P
//     with |P| >= q share at least q-2k common neighbours inside P.
//
// Soundness for enumeration (not just optimisation): by induction over the
// deletion sequence, every vertex and every edge inside a valid k-plex of
// size >= q survives, and so does every maximality witness P ∪ {x} (it is
// itself a valid k-plex of size >= q). The returned graph shares g's vertex
// id space; pruned vertices simply become isolated and fall out of the
// (q-k)-core that Run applies next.
//
// Both rules are monotone, so their joint fixed point is unique and any
// deletion order reaches it. The source is copied once into flat CSR
// arrays. A vertex queue first peels the copy to its (q-k)-core, which on
// sparse graphs removes most edges before any support is counted. Lazy
// sweeps follow: a sweep counts support only for edges with an endpoint
// that lost an arc since the previous sweep (every edge in the first),
// marks both arcs of a failing edge dead in place, and cascades a vertex
// that falls below q-k through the same queue. Rows that lost arcs are
// compacted between sweeps, and the loop stops after a sweep that kills
// nothing. A support count for the edge (u,v), swept from u, marks u's
// row once per sweep, scans v's row at O(deg(v)) and stops as soon as the
// edge is decided, so the reduction costs O(n+m) for the copy and the
// peel plus one such count per edge per sweep that reaches it.
//
// The reduction never changes the result set; it is an optional
// preprocessing step (Options.UseCTCP) that pays off on graphs with many
// low-support edges. It accepts any CSR source and returns a CSR: the
// input itself when no rule can fire, otherwise the compacted copy as an
// in-memory graph.
func ReduceCTCP(g graph.CSR, k, q int) graph.CSR {
	n := g.N()
	if n == 0 || q-2*k < 1 {
		// An edge threshold of q-2k <= 0 never fires, and plain k-core
		// pruning is already done by Run; nothing to do.
		return g
	}
	r := newCTCP(g, int32(q-k), int32(q-2*k))
	r.drain()
	r.compact(r.touched)
	var cand []int32
	for v, d := range r.deg {
		if d > 0 {
			cand = append(cand, int32(v))
		}
	}
	for len(cand) > 0 {
		cand = r.sweep(cand)
	}
	return r.pack()
}

// ctcp is the working state of one ReduceCTCP call. Row v is
// adj[off[v]:end[v]], sorted. An arc x→w is dead when it is stored as ^w
// (negative, so the row still sorts by the id it encodes) or when w has
// been removed, which deg[w] == 0 signals: a vertex with no live arc
// appears in no live arc either.
type ctcp struct {
	off, end []int32
	adj      []int32
	deg      []int32 // live arcs in row v

	degMin, cnMin int32

	queue []int32 // vertices whose degree fell below degMin

	round   int32   // 1 while peeling, then one more per sweep
	touch   []int32 // round in which v last lost an arc
	touched []int32 // vertices touched in the current round
	done    []int32 // round in which v's edges were last swept
	pos     []int32 // pos[w]: index of the arc x→w in the row being swept
}

func newCTCP(g graph.CSR, degMin, cnMin int32) *ctcp {
	n := g.N()
	r := &ctcp{
		off:    make([]int32, n+1),
		end:    make([]int32, n),
		adj:    make([]int32, 2*g.M()),
		deg:    make([]int32, n),
		degMin: degMin,
		cnMin:  cnMin,
		round:  1,
		touch:  make([]int32, n),
		done:   make([]int32, n),
		pos:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		row := g.Neighbors(v)
		w := r.off[v] + int32(copy(r.adj[r.off[v]:], row))
		r.off[v+1], r.end[v] = w, w
		r.deg[v] = int32(len(row))
		if d := r.deg[v]; d > 0 && d < degMin {
			r.queue = append(r.queue, int32(v))
		}
	}
	return r
}

// loseArc accounts one dead arc in v's row.
func (r *ctcp) loseArc(v int32) {
	r.deg[v]--
	if r.deg[v] == r.degMin-1 {
		r.queue = append(r.queue, v)
	}
	if r.touch[v] != r.round {
		r.touch[v] = r.round
		r.touched = append(r.touched, v)
	}
}

// killArc marks the arc u→v dead.
func (r *ctcp) killArc(u, v int32) {
	r.adj[r.search(r.off[u], r.end[u], v)] = ^v
	r.loseArc(u)
}

// search returns the first index in adj[lo:hi], a row, whose arc leads
// to v or beyond; dead arcs still sort by the id they encode.
func (r *ctcp) search(lo, hi, v int32) int32 {
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		w := r.adj[mid]
		if w < 0 {
			w = ^w
		}
		if w < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// drain removes queued vertices, cascading through their neighbours. A
// removed vertex's arcs die implicitly, so only degrees change here.
func (r *ctcp) drain() {
	for len(r.queue) > 0 {
		v := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		for _, u := range r.adj[r.off[v]:r.end[v]] {
			if u >= 0 && r.deg[u] > 0 {
				r.loseArc(u)
			}
		}
		r.deg[v] = 0
		r.end[v] = r.off[v]
		r.pos[v] = -1
	}
}

// compact squeezes the dead arcs out of the rows in vs.
func (r *ctcp) compact(vs []int32) {
	for _, v := range vs {
		w := r.off[v]
		for _, u := range r.adj[r.off[v]:r.end[v]] {
			if u >= 0 && r.deg[u] > 0 {
				r.adj[w] = u
				w++
			}
		}
		r.end[v] = w
	}
}

// sweep runs one round of the edge rule over every edge with an endpoint
// in cand, and returns the vertices that lost an arc in this round, with
// their rows compacted: the next round's candidates.
func (r *ctcp) sweep(cand []int32) []int32 {
	r.round++
	r.touched = nil
	for _, x := range cand {
		if r.deg[x] == 0 {
			continue
		}
		r.done[x] = r.round
		for i := r.off[x]; i < r.end[x]; i++ {
			if w := r.adj[i]; w >= 0 && r.deg[w] > 0 {
				r.pos[w] = i
			}
		}
		for i := r.off[x]; i < r.end[x]; i++ {
			y := r.adj[i]
			if y < 0 || r.deg[y] == 0 || r.done[y] == r.round || r.supported(x, y) {
				continue
			}
			r.adj[i] = ^y
			r.loseArc(x)
			r.killArc(y, x)
			r.drain() // may remove x itself, which ends this loop
		}
	}
	slices.Sort(r.touched)
	r.compact(r.touched)
	return r.touched
}

// supported reports whether the live edge (x,y) has at least cnMin common
// neighbours. pos holds x's row positions (-1 for a removed vertex), so a
// neighbour w of y is common when pos[w] points at a live arc x→w.
func (r *ctcp) supported(x, y int32) bool {
	need := r.cnMin
	xlo, xhi := r.off[x], r.end[x]
	ylo, yhi := r.off[y], r.end[y]
	for j := ylo; j < yhi; j++ {
		if need > yhi-j {
			return false
		}
		w := r.adj[j]
		if w < 0 {
			continue
		}
		if p := r.pos[w]; p >= xlo && p < xhi && r.adj[p] == w {
			if need--; need == 0 {
				return true
			}
		}
	}
	return false
}

// pack moves the surviving rows, compact since the last sweep, to the
// front of adj and returns the arrays as the output graph. Handing adj
// over saves a copy but keeps the source-sized array alive as long as the
// output is, so when less than half of it survives the live prefix is
// cloned into an array of its own instead.
func (r *ctcp) pack() *graph.Graph {
	n := len(r.end)
	w := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := r.off[v], r.end[v]
		r.off[v] = w
		w += int32(copy(r.adj[w:], r.adj[lo:hi]))
	}
	r.off[n] = w
	adj := r.adj[:w:w]
	if int(w) < len(r.adj)/2 {
		adj = slices.Clone(adj)
	}
	return graph.FromCSR(r.off, adj)
}
