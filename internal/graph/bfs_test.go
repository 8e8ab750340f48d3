package graph

import (
	"math/rand"
	"testing"
)

func TestBFSDistancesPath(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	dist := BFSDistances(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestBFSDistancesInvalidSource(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}})
	for _, src := range []int{-1, 3} {
		dist := BFSDistances(g, src)
		for v, d := range dist {
			if d != -1 {
				t.Errorf("src=%d: dist[%d] = %d, want -1", src, v, d)
			}
		}
	}
}

// eccentricity returns the largest finite BFS distance from v (0 when v is
// isolated): the exact oracle the diameter bound is checked against.
func eccentricity(g *Graph, v int) int {
	ecc := 0
	for _, d := range BFSDistances(g, v) {
		ecc = max(ecc, int(d))
	}
	return ecc
}

func TestEccentricityAndDiameter(t *testing.T) {
	// Path of 5: diameter 4, ecc(middle)=2.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if e := eccentricity(g, 2); e != 2 {
		t.Errorf("eccentricity(2) = %d, want 2", e)
	}
	if d := ApproxDiameter(g, 2); d != 4 {
		t.Errorf("ApproxDiameter = %d, want 4 (exact on trees)", d)
	}
}

func TestApproxDiameterLowerBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(20)
		var b Builder
		// Random connected-ish graph: a path backbone plus random chords.
		for v := 1; v < n; v++ {
			b.AddEdge(v-1, v)
		}
		for e := 0; e < n/2; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, err := b.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		exact := 0
		for v := 0; v < n; v++ {
			if e := eccentricity(g, v); e > exact {
				exact = e
			}
		}
		approx := ApproxDiameter(g, rng.Intn(n))
		if approx > exact {
			t.Fatalf("trial %d: approx diameter %d exceeds exact %d", trial, approx, exact)
		}
		if approx < exact/2 {
			t.Fatalf("trial %d: double sweep %d below half of exact %d", trial, approx, exact)
		}
	}
}
