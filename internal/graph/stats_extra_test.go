package graph

import (
	"math"
	"testing"
)

func edgeless(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := new(Builder).Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShellSizes(t *testing.T) {
	// Triangle (coreness 2 each) plus pendant (coreness 1) plus isolate
	// (coreness 0).
	g := buildGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	sizes := ShellSizes(g)
	want := []int{1, 1, 3}
	if len(sizes) != len(want) {
		t.Fatalf("ShellSizes = %v, want %v", sizes, want)
	}
	for c := range want {
		if sizes[c] != want[c] {
			t.Errorf("shell %d has %d vertices, want %d", c, sizes[c], want[c])
		}
	}
}

func TestDegreeAssortativityRegular(t *testing.T) {
	// A cycle is regular: zero degree variance, so r must be 0 by our
	// convention (the estimator is 0/0).
	var b Builder
	for v := 0; v < 6; v++ {
		b.AddEdge(v, (v+1)%6)
	}
	g, err := b.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	if r := DegreeAssortativity(g); r != 0 {
		t.Errorf("cycle assortativity = %v, want 0", r)
	}
}

func TestDegreeAssortativityStar(t *testing.T) {
	// A star is maximally disassortative: r = -1.
	var b Builder
	for leaf := 1; leaf <= 5; leaf++ {
		b.AddEdge(0, leaf)
	}
	g, err := b.Build(6)
	if err != nil {
		t.Fatal(err)
	}
	if r := DegreeAssortativity(g); math.Abs(r+1) > 1e-9 {
		t.Errorf("star assortativity = %v, want -1", r)
	}
}

func TestDegreeAssortativityBounds(t *testing.T) {
	g := randomGraph(t, 60, 0.1, 9)
	r := DegreeAssortativity(g)
	if r < -1-1e-9 || r > 1+1e-9 {
		t.Errorf("assortativity %v outside [-1, 1]", r)
	}
	if DegreeAssortativity(edgeless(t, 4)) != 0 {
		t.Error("edgeless graph assortativity should be 0")
	}
}

func TestComputeExtendedStats(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	s := ComputeExtendedStats(g)
	if s.N != 4 || s.M != 3 {
		t.Errorf("stats n=%d m=%d, want 4, 3", s.N, s.M)
	}
	if s.Triangles != 1 {
		t.Errorf("Triangles = %d, want 1", s.Triangles)
	}
	if s.Components != 2 {
		t.Errorf("Components = %d, want 2", s.Components)
	}
	if s.ApproxDiam != 1 {
		t.Errorf("ApproxDiam = %d, want 1", s.ApproxDiam)
	}
	if s.AvgDegree != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", s.AvgDegree)
	}
}
