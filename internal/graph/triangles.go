package graph

// This file implements triangle counting and clustering statistics. The
// k-plex pruning rules of the paper (Corollary 5.2, Theorems 5.13-5.15) are
// all thresholds on common-neighbour counts, i.e. on the local triangle
// structure around a vertex pair, so the routines here double as a
// diagnostic substrate: datasets whose common-neighbour mass is low are
// exactly those where the second-order rules prune hard.

// TriangleCounts returns the number of triangles through each vertex. It
// uses the forward (degree-ordered) algorithm: every triangle is discovered
// exactly once at its highest-rank vertex and credited to all three corners.
// Runs in O(m^{3/2}) time and O(n + m) space.
func TriangleCounts(g *Graph) []int64 {
	n := g.N()
	counts := make([]int64, n)
	if n == 0 {
		return counts
	}

	// rank orders vertices by (degree, id); "forward" neighbours of v are
	// those with higher rank.
	rank := degreeRank(g)
	forward := make([][]int32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if rank[u] > rank[v] {
				forward[v] = append(forward[v], u)
			}
		}
	}
	// mark is a per-source scratch marking forward[v] members.
	mark := make([]bool, n)
	for v := 0; v < n; v++ {
		for _, u := range forward[v] {
			mark[u] = true
		}
		for _, u := range forward[v] {
			for _, w := range forward[int(u)] {
				if mark[w] {
					counts[v]++
					counts[u]++
					counts[w]++
				}
			}
		}
		for _, u := range forward[v] {
			mark[u] = false
		}
	}
	return counts
}

// Triangles returns the total number of triangles in g.
func Triangles(g *Graph) int64 {
	var total int64
	for _, c := range TriangleCounts(g) {
		total += c
	}
	return total / 3
}

// LocalClustering returns the local clustering coefficient of every vertex:
// triangles(v) / C(deg(v), 2), defined as 0 for degree < 2.
func LocalClustering(g *Graph) []float64 {
	tri := TriangleCounts(g)
	out := make([]float64, g.N())
	for v := range out {
		d := int64(g.Degree(v))
		if d >= 2 {
			out[v] = float64(2*tri[v]) / float64(d*(d-1))
		}
	}
	return out
}

// AverageClustering returns the mean local clustering coefficient
// (Watts-Strogatz definition), 0 for the empty graph.
func AverageClustering(g *Graph) float64 {
	cc := LocalClustering(g)
	if len(cc) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cc {
		sum += c
	}
	return sum / float64(len(cc))
}

// Transitivity returns the global clustering coefficient
// 3*triangles / wedges, 0 when the graph has no wedge.
func Transitivity(g *Graph) float64 {
	var wedges int64
	for v := 0; v < g.N(); v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return float64(3*Triangles(g)) / float64(wedges)
}

// degreeRank returns a permutation rank where rank[u] < rank[v] iff
// (deg(u), u) < (deg(v), v).
func degreeRank(g *Graph) []int32 {
	n := g.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Counting sort by degree keeps this O(n + m).
	buckets := make([][]int32, g.MaxDegree()+1)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		buckets[d] = append(buckets[d], int32(v))
	}
	rank := make([]int32, n)
	r := int32(0)
	for _, b := range buckets {
		for _, v := range b {
			rank[v] = r
			r++
		}
	}
	return rank
}
