package graph

import (
	"math/rand"
	"testing"
)

func buildGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	var b Builder
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build(n)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestTriangleCountsTriangle(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	counts := TriangleCounts(g)
	for v, c := range counts {
		if c != 1 {
			t.Errorf("vertex %d: got %d triangles, want 1", v, c)
		}
	}
	if total := Triangles(g); total != 1 {
		t.Errorf("Triangles = %d, want 1", total)
	}
}

func TestTriangleCountsPath(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if total := Triangles(g); total != 0 {
		t.Errorf("path has %d triangles, want 0", total)
	}
}

func TestTriangleCountsK4(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if total := Triangles(g); total != 4 {
		t.Errorf("K4 has %d triangles, want 4", total)
	}
	for v, c := range TriangleCounts(g) {
		if c != 3 {
			t.Errorf("K4 vertex %d in %d triangles, want 3", v, c)
		}
	}
}

// naiveTriangles counts triangles by brute force over vertex triples.
func naiveTriangles(g *Graph) int64 {
	var total int64
	n := g.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					total++
				}
			}
		}
	}
	return total
}

func TestTrianglesMatchesNaiveOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(25)
		var b Builder
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(u, v)
				}
			}
		}
		g, err := b.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Triangles(g), naiveTriangles(g); got != want {
			t.Fatalf("trial %d (n=%d): Triangles=%d, naive=%d", trial, n, got, want)
		}
	}
}

func TestCommonNeighborCount(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {1, 4}})
	if got := CountCommon(g.Neighbors(0), g.Neighbors(1)); got != 2 {
		t.Errorf("CountCommon(N(0), N(1)) = %d, want 2", got)
	}
	if got := CountCommon(g.Neighbors(0), g.Neighbors(4)); got != 0 {
		t.Errorf("CountCommon(N(0), N(4)) = %d, want 0", got)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	// Triangle plus a pendant on vertex 0: cc(0) = 1/3, cc(1)=cc(2)=1,
	// cc(3)=0.
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	cc := LocalClustering(g)
	want := []float64{1.0 / 3, 1, 1, 0}
	for v := range want {
		if diff := cc[v] - want[v]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("cc[%d] = %v, want %v", v, cc[v], want[v])
		}
	}
	if avg := AverageClustering(g); avg < 0.58 || avg > 0.59 {
		t.Errorf("AverageClustering = %v, want ~0.5833", avg)
	}
	// Transitivity: 3 triangles' worth of closed wedges / total wedges.
	// Wedges: deg 3,2,2,1 -> 3+1+1+0 = 5; closed = 3*1 = 3.
	if tr := Transitivity(g); tr < 0.599 || tr > 0.601 {
		t.Errorf("Transitivity = %v, want 0.6", tr)
	}
}

func TestClusteringEmptyAndEdgeless(t *testing.T) {
	var b Builder
	g, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if Transitivity(g) != 0 || AverageClustering(g) != 0 || Triangles(g) != 0 {
		t.Error("empty graph should have zero clustering stats")
	}
	g2, err := new(Builder).Build(5)
	if err != nil {
		t.Fatal(err)
	}
	if Transitivity(g2) != 0 || AverageClustering(g2) != 0 {
		t.Error("edgeless graph should have zero clustering stats")
	}
}
