package graph

import "math"

// Extended dataset statistics beyond the paper's Table 2 columns. These back
// the cmd/kplexstats tool and the dataset-calibration tests that check the
// synthetic suite tracks its real-graph analogues (degree skew, shell
// structure, clustering).

// ShellSizes returns sizes where sizes[c] is the number of vertices with
// coreness exactly c. The paper's degeneracy ordering lists vertices in
// segments of these k-shells.
func ShellSizes(g *Graph) []int {
	cd := Cores(g)
	if g.N() == 0 {
		return nil
	}
	sizes := make([]int, cd.Degeneracy+1)
	for _, c := range cd.Coreness {
		sizes[c]++
	}
	return sizes
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's r). NaN-free: returns 0 when degrees have no variance or
// the graph has no edge. Social graphs are typically assortative (r > 0),
// web crawls disassortative (r < 0); the synthetic suite mirrors this.
func DegreeAssortativity(g *Graph) float64 {
	m2 := float64(2 * g.M())
	if m2 == 0 {
		return 0
	}
	// Sums over directed edge endpoints (each undirected edge twice, both
	// orientations, which symmetrises the estimator).
	var sumXY, sumX, sumX2 float64
	for u := 0; u < g.N(); u++ {
		du := float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			dv := float64(g.Degree(int(v)))
			sumXY += du * dv
			sumX += du
			sumX2 += du * du
		}
	}
	meanX := sumX / m2
	varX := sumX2/m2 - meanX*meanX
	if varX <= 0 {
		return 0
	}
	cov := sumXY/m2 - meanX*meanX
	r := cov / varX
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

// ExtendedStats bundles the optional statistics.
type ExtendedStats struct {
	Stats
	AvgDegree     float64
	Triangles     int64
	Transitivity  float64
	AvgClustering float64
	Assortativity float64
	Components    int
	ApproxDiam    int // double-sweep lower bound
}

// ComputeExtendedStats computes every statistic; O(m^{3/2}) due to the
// triangle count, fine for the synthetic suite sizes.
func ComputeExtendedStats(g *Graph) ExtendedStats {
	s := ExtendedStats{
		Stats:         ComputeStats(g),
		Transitivity:  Transitivity(g),
		AvgClustering: AverageClustering(g),
		Assortativity: DegreeAssortativity(g),
		Triangles:     Triangles(g),
	}
	s.AvgDegree = s.Stats.AverageDegree()
	_, s.Components = ConnectedComponents(g)
	s.ApproxDiam = ApproxDiameter(g, 0)
	return s
}
