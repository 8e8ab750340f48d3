package kplex

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// buildSeedGraph constructs G_i for seed s over the degeneracy-relabelled
// graph g ("later" is the numeric comparison u > s), with fresh scratch and
// storage per call. The engine goes through seedScratch.build with pooled
// storage instead.
func buildSeedGraph(g *graph.Graph, s int, opts *Options) *seedGraph {
	return newSeedScratch(g.N()).build(g, nil, s, opts, &seedStorage{}, nil)
}

// buildFor is a test helper that constructs the seed graph of seed s on a
// degeneracy-relabelled copy of g.
func buildFor(t *testing.T, g *graph.Graph, s int, opts Options) (*seedGraph, *graph.Graph) {
	t.Helper()
	relab, _ := graph.DegeneracyOrderedCopy(g)
	return buildSeedGraph(relab, s, &opts), relab
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var b graph.Builder
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSeedGraphNilWhenTooSmall(t *testing.T) {
	// A path has no large k-plexes: every seed group must be rejected for
	// q beyond the path's tiny plexes.
	g := pathGraph(t, 10)
	opts := NewOptions(2, 6)
	for s := 0; s < g.N(); s++ {
		if sg, _ := buildFor(t, g, s, opts); sg != nil {
			t.Fatalf("seed %d: expected nil seed graph on a path with q=6", s)
		}
	}
}

func TestSeedGraphStructure(t *testing.T) {
	// Complete graph K8: for the first seed in degeneracy order the later
	// neighbourhood is everything, there are no 2-hop vertices, and no
	// earlier vertices.
	var b graph.Builder
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(i, j)
		}
	}
	g, _ := b.Build(8)
	opts := NewOptions(2, 5)
	sg, _ := buildFor(t, g, 0, opts)
	if sg == nil {
		t.Fatal("seed graph unexpectedly nil on K8")
	}
	if sg.nv != 8 || sg.nAll != 8 {
		t.Fatalf("nv=%d nAll=%d, want 8/8", sg.nv, sg.nAll)
	}
	if len(sg.hop2) != 0 {
		t.Fatalf("hop2 = %v, want empty on a clique", sg.hop2)
	}
	if got := sg.nbrSeed.Count(); got != 7 {
		t.Fatalf("|N¹| = %d, want 7", got)
	}
	// Adjacency rows must be symmetric within the candidate space.
	for u := 0; u < sg.nv; u++ {
		for v := 0; v < sg.nv; v++ {
			if u != v && sg.adj[u].Contains(v) != sg.adj[v].Contains(u) {
				t.Fatalf("asymmetric adjacency %d/%d", u, v)
			}
		}
		if sg.adj[u].Contains(u) {
			t.Fatalf("self-loop at %d", u)
		}
	}
	// degGi on a clique is n-1 for everyone.
	for u := 0; u < sg.nv; u++ {
		if sg.degGi[u] != 7 {
			t.Fatalf("degGi[%d] = %d, want 7", u, sg.degGi[u])
		}
	}
}

func TestSeedGraphLaterSeedsHaveEarlierX(t *testing.T) {
	// On K8, any later seed s has s earlier neighbours, all of which must
	// appear as X-only vertices (they witness non-maximality of any plex
	// skipping them).
	var b graph.Builder
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(i, j)
		}
	}
	g, _ := b.Build(8)
	opts := NewOptions(2, 5)
	sg, _ := buildFor(t, g, 3, opts)
	if sg == nil {
		t.Skip("seed group pruned — acceptable for a later clique seed")
	}
	if got := sg.nAll - sg.nv; got != 3 {
		t.Fatalf("|V'| = %d, want 3 earlier vertices", got)
	}
	// Each X vertex on a clique is adjacent to every candidate vertex.
	for x := sg.nv; x < sg.nAll; x++ {
		for v := 0; v < sg.nv; v++ {
			if v != x && !sg.adj[x].Contains(v) {
				t.Fatalf("X vertex %d missing edge to %d", x, v)
			}
		}
	}
}

func TestSeedGraphHop2(t *testing.T) {
	// Star-of-triangles: seed 0 adjacent to 1 and 2; vertex 3 adjacent to
	// 1 and 2 (two hops from 0 via two common neighbours).
	var b graph.Builder
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, _ := b.Build(4)
	opts := NewOptions(2, 3) // q=3: thresholds small enough to keep hop2
	relab, orig := graph.DegeneracyOrderedCopy(g)
	// Find the relabelled id of vertex 0.
	var s int
	for i, o := range orig {
		if o == 0 {
			s = i
		}
	}
	sg := buildSeedGraph(relab, s, &opts)
	if sg == nil {
		t.Skip("seed 0 is late in degeneracy order on this tiny graph")
	}
	// The 2-hop pool must contain only vertices later than the seed and
	// non-adjacent to it, each with >= q-2k+2 = 1 common neighbours.
	for _, h := range sg.hop2 {
		if sg.adj[0].Contains(h) {
			t.Fatalf("hop2 vertex %d adjacent to the seed", h)
		}
		if sg.adj[h].IntersectionCount(sg.nbrSeed) < 1 {
			t.Fatalf("hop2 vertex %d has no common neighbour with seed", h)
		}
	}
}

func TestPairMatrixSymmetricAndSound(t *testing.T) {
	g := gen.GNP(60, 0.4, 3)
	opts := NewOptions(2, 6)
	relab, _ := graph.DegeneracyOrderedCopy(g)
	checked := 0
	for s := 0; s < relab.N(); s++ {
		sg := buildSeedGraph(relab, s, &opts)
		if sg == nil || sg.pair == nil {
			continue
		}
		checked++
		for u := 0; u < sg.nv; u++ {
			for v := 0; v < sg.nv; v++ {
				if u == v {
					continue
				}
				if sg.pair[u].Contains(v) != sg.pair[v].Contains(u) {
					t.Fatalf("seed %d: pair matrix asymmetric at (%d,%d)", s, u, v)
				}
			}
			// V' bits must be all ones so X intersection is a no-op.
			for x := sg.nv; x < sg.nAll; x++ {
				if !sg.pair[u].Contains(x) {
					t.Fatalf("seed %d: pair row %d clears X-range bit %d", s, u, x)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no seed graphs built; test graph too sparse")
	}
}

// TestPairPruningIsConservative verifies rule R2's soundness directly: on
// random graphs, enumerate with and without pair pruning and compare counts
// (the full result-set comparison lives in engine_test.go; this pins the
// blame on the pair matrix when it fires).
func TestPairPruningIsConservative(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.GNP(40, 0.5, 100+seed)
		for _, kq := range []struct{ k, q int }{{2, 5}, {3, 6}} {
			with := NewOptions(kq.k, kq.q)
			without := NewOptions(kq.k, kq.q)
			without.UsePairPruning = false
			rw := mustRun(t, g, with)
			ro := mustRun(t, g, without)
			if rw.Count != ro.Count {
				t.Fatalf("seed %d k=%d q=%d: pair pruning changed count %d -> %d",
					seed, kq.k, kq.q, ro.Count, rw.Count)
			}
		}
	}
}
