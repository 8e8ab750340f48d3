package kplex_test

import (
	"context"
	"fmt"
	"log"

	kplex "repro"
)

// ExampleEnumerateTopK keeps only the largest results of an enumeration.
func ExampleEnumerateTopK() {
	// Two overlapping triangles sharing an edge: K4 minus one edge is the
	// largest 2-plex.
	var b kplex.Builder
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, _ := b.Build(4)
	top, res, err := kplex.EnumerateTopK(context.Background(), g, kplex.NewOptions(2, 3), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Count, top[0])
	// Output: 1 [0 1 2 3]
}

// ExampleGreedyKPlex shows the warm-start heuristic on a clique: greedy
// recovers the whole graph since every addition keeps the set a k-plex.
func ExampleGreedyKPlex() {
	var b kplex.Builder
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	g, _ := b.Build(6)
	fmt.Println(len(kplex.GreedyKPlex(g, 2)))
	// Output: 6
}

// ExampleD2KEnumerate cross-checks the standalone baseline on a triangle.
func ExampleD2KEnumerate() {
	var b kplex.Builder
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	g, _ := b.Build(3)
	fmt.Println(kplex.D2KEnumerate(g, 2, 3))
	// Output: [[0 1 2]]
}

// ExampleFaPlexenEnumerate runs the second standalone baseline; unlike the
// seed-decomposed enumerators it accepts q below 2k-1.
func ExampleFaPlexenEnumerate() {
	var b kplex.Builder
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, _ := b.Build(3)
	// The path 0-1-2 is a maximal 2-plex of size 3 (ends miss one edge).
	fmt.Println(kplex.FaPlexenEnumerate(g, 2, 2))
	// Output: [[0 1 2]]
}

// ExampleComputeExtendedGraphStats reports the clustering statistics of a
// triangle with a pendant edge.
func ExampleComputeExtendedGraphStats() {
	var b kplex.Builder
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, _ := b.Build(4)
	s := kplex.ComputeExtendedGraphStats(g)
	fmt.Printf("triangles=%d transitivity=%.1f components=%d\n",
		s.Triangles, s.Transitivity, s.Components)
	// Output: triangles=1 transitivity=0.6 components=1
}
