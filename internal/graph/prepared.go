package graph

import "slices"

// Prepared is an enumeration-ready view of a graph: the minCore-core
// restricted to non-isolated shells, relabelled so vertex i is the i-th
// vertex of the degeneracy ordering η, with guaranteed-sorted CSR
// adjacency, per-vertex later-neighbour offsets, and per-vertex coreness.
// It is immutable after Prepare, so one handle can serve any number of
// concurrent enumeration runs — the serving layer caches handles keyed by
// the source graph's memoized digest so repeat queries skip this O(n+m)
// prologue entirely.
type Prepared struct {
	g        *Graph  // relabelled working graph
	toInput  []int32 // relabelled id -> source graph id
	laterOff []int32 // index within Neighbors(v) of the first neighbour > v
	coreness []int32 // core numbers in the relabelled space
}

// Prepare builds the enumeration view of g: restrict to the minCore-core
// (Theorem 3.5 with minCore = q-k), relabel by degeneracy order, and
// precompute the later-neighbour offsets the seed decomposition consumes.
//
// One peel over g's flat rows (a source that is not a *Graph is
// materialized first) yields all of it:
//  1. a queue peels every vertex whose degree falls below minCore, which
//     leaves exactly the minCore-core, each survivor's deg now being its
//     degree inside the core;
//  2. the survivors are bucketed by that degree in id order, the initial
//     state a core decomposition of the core itself starts from, and the
//     bucket peel continues from there, so η, the new ids and the coreness
//     come out as they would from decomposing the core as its own graph;
//  3. the relabel reads the source rows and skips the peeled neighbours.
//
// A peeled vertex keeps a degree below minCore while every survivor's
// stays at or above it, so deg alone tells the two apart in steps 2–3.
func Prepare(g CSR, minCore int) *Prepared {
	src := Materialize(g)
	off, adj := src.offsets, src.adj
	n := src.N()
	mc := int32(max(minCore, 0))
	deg := make([]int32, n)
	pos := make([]int32, n) // the peel queue in step 1, bucket positions after
	queue := pos[:0]
	for v := range deg {
		deg[v] = off[v+1] - off[v]
		if deg[v] < mc {
			queue = append(queue, int32(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		x := queue[i]
		for _, u := range adj[off[x]:off[x+1]] {
			if deg[u] >= mc {
				if deg[u]--; deg[u] < mc {
					queue = append(queue, u)
				}
			}
		}
	}

	nc, arcs, maxDeg := 0, int32(0), int32(0)
	for _, d := range deg {
		if d >= mc {
			nc++
			arcs += d
			maxDeg = max(maxDeg, d)
		}
	}
	// bin[d] = start index of bucket d within vert; vert lists the core by
	// current degree and ends up as η.
	bin := make([]int32, maxDeg+2)
	for _, d := range deg {
		if d >= mc {
			bin[d+1]++
		}
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int32, nc)
	fill := slices.Clone(bin[:maxDeg+1])
	for v, d := range deg {
		if d >= mc {
			pos[v] = fill[d]
			vert[pos[v]] = int32(v)
			fill[d]++
		}
	}
	p := &Prepared{
		toInput:  vert,
		laterOff: make([]int32, nc),
		coreness: make([]int32, nc),
	}
	cur := int32(0)
	for i, v := range vert {
		cur = max(cur, deg[v])
		p.coreness[i] = cur
		for _, u := range adj[off[v]:off[v+1]] {
			if deg[u] <= deg[v] {
				continue // peeled, or in the current bucket floor
			}
			// Move u one bucket down: swap it with the first vertex of its
			// bucket and advance that bucket's start.
			du, pu := deg[u], pos[u]
			pw := bin[du]
			if w := vert[pw]; u != w {
				vert[pu], vert[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			bin[du]++
			deg[u]--
		}
	}

	// A core vertex's bucket position is now its place in η, its new id.
	// Each row is written in place and sorted; the entries below the row's
	// own id are counted on the way, which is its later-neighbour offset.
	offsets := make([]int32, nc+1)
	out := make([]int32, arcs)
	w := int32(0)
	for newU, old := range vert {
		start, earlier := w, int32(0)
		for _, u := range adj[off[old]:off[old+1]] {
			if deg[u] < mc {
				continue
			}
			out[w] = pos[u]
			w++
			if pos[u] < int32(newU) {
				earlier++
			}
		}
		slices.Sort(out[start:w])
		offsets[newU+1] = w
		p.laterOff[newU] = earlier
	}
	p.g = &Graph{offsets: offsets, adj: out}
	return p
}

// G returns the relabelled working graph. Its vertex ids are the seed id
// space of an enumeration run; callers must not mutate it.
func (p *Prepared) G() *Graph { return p.g }

// N returns the number of vertices of the working graph.
func (p *Prepared) N() int { return p.g.N() }

// ToInputIDs returns the full relabelled-to-source id mapping. Callers must
// not mutate it.
func (p *Prepared) ToInputIDs() []int32 { return p.toInput }

// LaterNeighbors returns the neighbours of v that come after v in the
// degeneracy ordering — the suffix of the sorted adjacency row, located by
// the precomputed offset instead of a scan.
func (p *Prepared) LaterNeighbors(v int) []int32 {
	return p.g.Neighbors(v)[p.laterOff[v]:]
}

// EarlierNeighbors returns the neighbours of v that come before it in the
// degeneracy ordering.
func (p *Prepared) EarlierNeighbors(v int) []int32 {
	return p.g.Neighbors(v)[:p.laterOff[v]]
}
