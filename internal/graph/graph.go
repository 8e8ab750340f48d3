// Package graph provides the undirected simple-graph substrate used by the
// k-plex enumerator: a compressed-sparse-row representation with sorted
// adjacency, edge-list I/O, linear-time core decomposition (degeneracy
// ordering via peeling), and (q-k)-core reduction (Theorem 3.5 of the paper).
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is an undirected simple graph in CSR form. Vertices are 0..N()-1.
// Adjacency lists are sorted ascending, contain no self-loops and no
// duplicates. The zero value is an empty graph. A Graph must not be copied
// after first use (its memoized digest holds a sync.Once).
type Graph struct {
	offsets []int32 // len N()+1
	adj     []int32 // len 2*M()

	// The content digest is memoized: the CSR is immutable after Build, so
	// hashing it once serves every later cache lookup (the serving layer
	// keys result and prepared-graph caches on it).
	digestOnce sync.Once
	digest     [32]byte
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns Δ, the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether (u, v) ∈ E using binary search on u's adjacency.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Edge is an undirected edge between U and V.
type Edge struct {
	U, V int32
}

// Builder accumulates edges and produces a normalized Graph. Duplicate
// edges, reversed duplicates and self-loops are dropped. The zero value is
// ready to use.
type Builder struct {
	edges []Edge
	maxV  int32
}

// AddEdge records an undirected edge. Negative endpoints are rejected at
// Build time. Self-loops are silently discarded.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		return
	}
	if int32(u) > b.maxV {
		b.maxV = int32(u)
	}
	if int32(v) > b.maxV {
		b.maxV = int32(v)
	}
	b.edges = append(b.edges, Edge{int32(u), int32(v)})
}

// Grow pre-allocates room for n additional edges.
func (b *Builder) Grow(n int) {
	if cap(b.edges)-len(b.edges) < n {
		grown := make([]Edge, len(b.edges), len(b.edges)+n)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// Build normalizes the accumulated edges into a Graph with n vertices. If
// n < 0 the vertex count is inferred as maxVertexID+1.
func (b *Builder) Build(n int) (*Graph, error) {
	if n < 0 {
		n = int(b.maxV) + 1
		if len(b.edges) == 0 {
			n = 0
		}
	}
	for _, e := range b.edges {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d, %d)", e.U, e.V)
		}
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d, %d) out of range for n=%d", e.U, e.V, n)
		}
	}
	// Count directed arcs (each undirected edge contributes two).
	deg := make([]int32, n+1)
	for _, e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	adj := make([]int32, offsets[n])
	cur := make([]int32, n)
	copy(cur, offsets[:n])
	for _, e := range b.edges {
		adj[cur[e.U]] = e.V
		cur[e.U]++
		adj[cur[e.V]] = e.U
		cur[e.V]++
	}
	// Sort each adjacency list and strip duplicates in place.
	outOff := make([]int32, n+1)
	w := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		row := adj[lo:hi]
		slices.Sort(row)
		outOff[v] = w
		var prev int32 = -1
		for _, u := range row {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
	}
	outOff[n] = w
	return &Graph{offsets: outOff, adj: adj[:w:w]}, nil
}

// Edges returns all undirected edges (u < v) in ascending order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int32(v) < u {
				out = append(out, Edge{int32(v), u})
			}
		}
	}
	return out
}

// InducedSubgraphOf returns the subgraph of any CSR source induced by keep
// (distinct vertices, not necessarily sorted), along with origID mapping
// new vertex ids to original ids. The kept rows are read through the
// interface, so a paged on-disk graph is reduced to an in-memory core
// without ever materializing the full adjacency.
func InducedSubgraphOf(g CSR, keep []int) (sub *Graph, origID []int32) {
	newID := make([]int32, g.N())
	for i := range newID {
		newID[i] = -1
	}
	origID = make([]int32, len(keep))
	sorted := append([]int(nil), keep...)
	sort.Ints(sorted)
	for i, v := range sorted {
		newID[v] = int32(i)
		origID[i] = int32(v)
	}
	// newID is monotone in the old id, so mapping a sorted source row
	// through it keeps the row sorted: the CSR is written directly, one
	// pass to size the rows and one to fill them.
	offsets := make([]int32, len(sorted)+1)
	for i, v := range sorted {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if newID[u] >= 0 {
				d++
			}
		}
		offsets[i+1] = offsets[i] + d
	}
	adj := make([]int32, offsets[len(sorted)])
	for i, v := range sorted {
		row := adj[offsets[i]:offsets[i]:offsets[i+1]]
		for _, u := range g.Neighbors(v) {
			if j := newID[u]; j >= 0 {
				row = append(row, j)
			}
		}
	}
	return &Graph{offsets: offsets, adj: adj}, origID
}
