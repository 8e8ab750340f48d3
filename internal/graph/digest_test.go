package graph

import (
	"math/rand"
	"testing"
)

// The digest must depend only on the edge set: shuffled, duplicated edge
// insertions build the same graph and the same digest.
func TestDigestEdgeOrderInvariant(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 1}}
	var b1 Builder
	for _, e := range edges {
		b1.AddEdge(e[0], e[1])
	}
	g1, err := b1.Build(5)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	var b2 Builder
	perm := rng.Perm(len(edges))
	for _, i := range perm {
		b2.AddEdge(edges[i][1], edges[i][0]) // reversed endpoints
	}
	b2.AddEdge(0, 1) // duplicate is deduplicated by Build
	g2, err := b2.Build(5)
	if err != nil {
		t.Fatal(err)
	}

	if Digest(g1) != Digest(g2) {
		t.Error("digest differs across edge insertion orders")
	}
	if DigestHexOf(g1) != DigestHexOf(g2) {
		t.Error("hex digest differs across edge insertion orders")
	}
	if len(DigestHexOf(g1)) != 64 {
		t.Errorf("hex digest length %d, want 64", len(DigestHexOf(g1)))
	}
}

// Different graphs — one edge added, one vertex added, or an isolated
// vertex shifted — must digest differently.
func TestDigestDistinguishesGraphs(t *testing.T) {
	base := func() *Builder {
		var b Builder
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		return &b
	}
	g, _ := base().Build(3)

	b2 := base()
	b2.AddEdge(0, 2)
	g2, _ := b2.Build(3)
	if Digest(g) == Digest(g2) {
		t.Error("adding an edge did not change the digest")
	}

	g3, _ := base().Build(4) // extra isolated vertex
	if Digest(g) == Digest(g3) {
		t.Error("adding an isolated vertex did not change the digest")
	}

	empty1, _ := (&Builder{}).Build(0)
	empty2, _ := (&Builder{}).Build(2)
	if Digest(empty1) == Digest(empty2) {
		t.Error("empty graphs of different order digest equal")
	}
}
