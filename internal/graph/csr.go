package graph

import "sort"

// CSR is the read-only access surface of a compressed-sparse-row graph:
// everything the enumeration prologue (core decomposition, CTCP reduction,
// degeneracy relabelling) needs from a graph source. *Graph implements it
// with in-memory slices; the on-disk store's mmap-backed reader implements
// it by decoding delta+varint adjacency blocks on demand, and also
// implements Decoder, through which kplex.Prepare expands it once into
// flat arrays — so the whole seed pipeline runs unmodified over paged
// data.
//
// Contracts (identical to *Graph's):
//   - vertices are 0..N()-1;
//   - Neighbors(v) is sorted ascending, has no self-loops and no
//     duplicates, and must not be modified by the caller;
//   - the slice returned by Neighbors stays valid for as long as the
//     caller holds it (a paging implementation may evict its decoded
//     block, but eviction only drops the source's reference);
//   - M() is the undirected edge count, so sum of Degree = 2*M().
type CSR interface {
	N() int
	M() int
	Degree(v int) int
	Neighbors(v int) []int32
}

// StoredDigester is implemented by graph sources that carry a precomputed
// content digest (the on-disk store format keeps it in the file header).
// DigestOf consults it instead of rehashing the whole adjacency, which is
// what keeps catalog-backed graphs O(1) to open.
type StoredDigester interface {
	StoredDigest() [32]byte
}

// Decoder is implemented by paged graph sources (the on-disk store's
// reader) that can expand their whole adjacency into one in-memory graph
// in a single pass. kplex.Prepare decodes such a source once, so the
// prologue reads flat arrays instead of paging rows, and a corrupt source
// comes back as an error instead of a panic on first touch.
type Decoder interface {
	Decode() (*Graph, error)
}

// MaxDegreeOf returns Δ for any CSR, using a source-provided constant-time
// answer when one exists (*Graph scans; the store reader answers from its
// header).
func MaxDegreeOf(g CSR) int {
	if mg, ok := g.(interface{ MaxDegree() int }); ok {
		return mg.MaxDegree()
	}
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// HasEdgeIn reports whether (u, v) is an edge of any CSR source, by
// binary search on u's sorted adjacency row.
func HasEdgeIn(g CSR, u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Materialize copies any CSR into an in-memory *Graph. The input's
// adjacency contracts (sorted, deduplicated, loop-free) are trusted; the
// copy is built directly without renormalizing.
func Materialize(g CSR) *Graph {
	if gg, ok := g.(*Graph); ok {
		return gg
	}
	n := g.N()
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int32(g.Degree(v))
	}
	adj := make([]int32, offsets[n])
	for v := 0; v < n; v++ {
		copy(adj[offsets[v]:offsets[v+1]], g.Neighbors(v))
	}
	return &Graph{offsets: offsets, adj: adj}
}

// FromCSR wraps CSR arrays as a *Graph without copying or renormalizing:
// row v is adj[offsets[v]:offsets[v+1]]. The caller hands the arrays over
// and guarantees the CSR contracts (sorted, duplicate-free, loop-free,
// symmetric rows); it is how a reduction that already produced a canonical
// CSR returns it without a second Build.
func FromCSR(offsets, adj []int32) *Graph {
	return &Graph{offsets: offsets, adj: adj}
}
