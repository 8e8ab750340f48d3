package kplex

import (
	"testing"

	"repro/internal/graph"
)

func tinyGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	var b graph.Builder
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestIsKPlexBasics(t *testing.T) {
	g := tinyGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	cases := []struct {
		P    []int
		k    int
		want bool
	}{
		{nil, 1, true},            // empty set
		{[]int{2}, 1, true},       // singleton
		{[]int{0, 1, 2}, 1, true}, // triangle is a clique
		{[]int{0, 1, 2, 3}, 1, false},
		// Vertex 3 is adjacent only to 2 inside {0,1,2,3}: d_P(3) = 1 is
		// below |P|-k = 2, so the set is not a 2-plex.
		{[]int{0, 1, 2, 3}, 2, false},
	}
	for _, c := range cases {
		if got := IsKPlex(g, c.P, c.k); got != c.want {
			t.Errorf("IsKPlex(%v, k=%d) = %v, want %v", c.P, c.k, got, c.want)
		}
	}
	// k=3 admits it: vertex 3 misses 0, 1 and itself (3 = k).
	if !IsKPlex(g, []int{0, 1, 2, 3}, 3) {
		t.Error("IsKPlex({0,1,2,3}, k=3) = false, want true")
	}
}

func TestIsKPlexRejectsBadInput(t *testing.T) {
	g := tinyGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	if IsKPlex(g, []int{0, 0}, 2) {
		t.Error("duplicate vertices accepted")
	}
	if IsKPlex(g, []int{0, 5}, 2) {
		t.Error("out-of-range vertex accepted")
	}
	if IsKPlex(g, []int{-1}, 2) {
		t.Error("negative vertex accepted")
	}
}

func TestCanExtendAndMaximal(t *testing.T) {
	// Path 0-1-2-3.
	g := tinyGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	// {0,1} as a 1-plex (edge/clique): extendable? Adding 2 gives a path of
	// 3 which is not a clique; so {0,1} is maximal as a clique... vertex 2
	// adjacent to 1 but not 0.
	if graph.CanExtendKPlex(g, []int{0, 1}, 1) {
		t.Error("{0,1} should be a maximal clique")
	}
	// {1,2} as a 2-plex: {0,1,2} is a 2-plex (0 misses 2 + itself = 2),
	// so {1,2} is extendable.
	if !graph.CanExtendKPlex(g, []int{1, 2}, 2) {
		t.Error("{1,2} should be extendable under k=2")
	}
	if !IsMaximalKPlex(g, []int{0, 1}, 1) {
		t.Error("{0,1} should be a maximal 1-plex")
	}
	if IsMaximalKPlex(g, []int{1, 2}, 2) {
		t.Error("{1,2} should not be maximal under k=2")
	}
	if IsMaximalKPlex(g, []int{0, 3}, 1) {
		t.Error("{0,3} is not even a 1-plex")
	}
}

func TestCanExtendSmallPBranch(t *testing.T) {
	// With |P| <= k, extenders may be non-adjacent to all of P; the
	// whole-graph scan branch must find them. Graph: two isolated vertices
	// plus an edge. P={0} with k=2 extends with the isolated vertex 3
	// ({0,3} is a 2-plex: each misses the other + itself = 2).
	g := tinyGraph(t, 4, [][2]int{{0, 1}})
	if !graph.CanExtendKPlex(g, []int{0}, 2) {
		t.Error("singleton should extend under k=2 even via non-neighbours")
	}
}
