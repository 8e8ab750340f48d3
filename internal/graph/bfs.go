package graph

// BFS utilities. The seed-subgraph construction of Algorithm 2 is a
// two-level BFS from each seed; the generic routines here support the
// dataset statistics (the double-sweep diameter bound).

// BFSDistances returns the hop distance from src to every vertex, -1 for
// unreachable vertices. O(n + m).
func BFSDistances(g *Graph, src int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ApproxDiameter lower-bounds the diameter with the classic double-sweep
// heuristic: BFS from src, then BFS again from the farthest vertex found.
// Exact on trees; a strong lower bound in general. Returns 0 for graphs
// with no edges.
func ApproxDiameter(g *Graph, src int) int {
	if g.N() == 0 {
		return 0
	}
	if src < 0 || src >= g.N() {
		src = 0
	}
	far, d := farthest(g, src)
	if d == 0 {
		return 0
	}
	_, d2 := farthest(g, far)
	if d2 > d {
		return d2
	}
	return d
}

// farthest returns a vertex at maximum finite BFS distance from src, and
// that distance.
func farthest(g *Graph, src int) (v, dist int) {
	v, dist = src, 0
	for u, d := range BFSDistances(g, src) {
		if int(d) > dist {
			v, dist = u, int(d)
		}
	}
	return v, dist
}
