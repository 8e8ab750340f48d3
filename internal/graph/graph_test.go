package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, n int, edges [][2]int) *Graph {
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

func TestBuilderNormalizes(t *testing.T) {
	// Duplicates, reversed duplicates and self-loops must all collapse.
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {3, 1}})
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) || !g.HasEdge(1, 3) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edge present")
	}
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	// Adjacency must be sorted.
	nb := g.Neighbors(1)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("Neighbors(1) not sorted: %v", nb)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	var b Builder
	b.AddEdge(0, 5)
	if _, err := b.Build(3); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustBuild(t, 0, nil)
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph not empty")
	}
	cd := Cores(g)
	if cd.Degeneracy != 0 || len(cd.Order) != 0 {
		t.Fatal("empty graph core decomposition wrong")
	}
}

func TestInferredVertexCount(t *testing.T) {
	var b Builder
	b.AddEdge(2, 7)
	g, err := b.Build(-1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 {
		t.Fatalf("inferred N = %d, want 8", g.N())
	}
}

func TestCoresOnKnownGraphs(t *testing.T) {
	// A triangle with a pendant: coreness 2,2,2,1; degeneracy 2.
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	cd := Cores(g)
	if cd.Degeneracy != 2 {
		t.Fatalf("degeneracy = %d, want 2", cd.Degeneracy)
	}
	wantCore := []int32{2, 2, 2, 1}
	for v, w := range wantCore {
		if cd.Coreness[v] != w {
			t.Fatalf("coreness[%d] = %d, want %d", v, cd.Coreness[v], w)
		}
	}
	// The pendant must be peeled first.
	if cd.Order[0] != 3 {
		t.Fatalf("order[0] = %d, want 3", cd.Order[0])
	}
	// Pos must invert Order.
	for i, v := range cd.Order {
		if cd.Pos[v] != int32(i) {
			t.Fatal("Pos does not invert Order")
		}
	}

	// Complete graph K5: degeneracy 4.
	var b Builder
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	k5, _ := b.Build(5)
	if d := Degeneracy(k5); d != 4 {
		t.Fatalf("K5 degeneracy = %d, want 4", d)
	}
}

// coreInvariant checks that every vertex of the k-core has >= k neighbours
// inside the k-core.
func TestKCoreInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(50)
		var b Builder
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, _ := b.Build(n)
		for k := 1; k <= 5; k++ {
			sub, orig := KCore(g, k)
			for v := 0; v < sub.N(); v++ {
				if sub.Degree(v) < k {
					t.Fatalf("k=%d: vertex %d (orig %d) has degree %d in core",
						k, v, orig[v], sub.Degree(v))
				}
			}
			// Maximality: no removed vertex set could be added back; verified
			// indirectly by comparing against the coreness array.
			cd := Cores(g)
			cnt := 0
			for v := 0; v < g.N(); v++ {
				if int(cd.Coreness[v]) >= k {
					cnt++
				}
			}
			if cnt != sub.N() {
				t.Fatalf("k=%d: core has %d vertices, coreness says %d", k, sub.N(), cnt)
			}
		}
	}
}

func TestDegeneracyOrderedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	var b Builder
	for i := 0; i < 4*n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g, _ := b.Build(n)
	rg, orig := DegeneracyOrderedCopy(g)
	if rg.N() != g.N() || rg.M() != g.M() {
		t.Fatalf("relabel changed size: %d/%d vs %d/%d", rg.N(), rg.M(), g.N(), g.M())
	}
	// Edges must map back exactly.
	for v := 0; v < rg.N(); v++ {
		for _, u := range rg.Neighbors(v) {
			if !g.HasEdge(int(orig[v]), int(orig[u])) {
				t.Fatalf("edge (%d,%d) not present in original", orig[v], orig[u])
			}
		}
	}
	// Degeneracy property: every vertex has at most D later neighbours.
	d := Degeneracy(g)
	for v := 0; v < rg.N(); v++ {
		later := 0
		for _, u := range rg.Neighbors(v) {
			if u > int32(v) {
				later++
			}
		}
		if later > d {
			t.Fatalf("vertex %d has %d later neighbours > degeneracy %d", v, later, d)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := mustBuild(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}})
	sub, orig := InducedSubgraphOf(g, []int{1, 2, 4})
	if sub.N() != 3 {
		t.Fatalf("sub N = %d", sub.N())
	}
	// Edges among {1,2,4}: (1,2) and (1,4).
	if sub.M() != 2 {
		t.Fatalf("sub M = %d, want 2", sub.M())
	}
	find := func(o int) int {
		for i, v := range orig {
			if int(v) == o {
				return i
			}
		}
		t.Fatalf("orig id %d missing", o)
		return -1
	}
	if !sub.HasEdge(find(1), find(2)) || !sub.HasEdge(find(1), find(4)) {
		t.Fatal("expected edges missing in induced subgraph")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustBuild(t, 5, [][2]int{{0, 1}, {1, 2}, {3, 4}, {0, 4}})
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	rr, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Graph.M() != g.M() {
		t.Fatalf("round trip M = %d, want %d", rr.Graph.M(), g.M())
	}
}

func TestReadEdgeListFormats(t *testing.T) {
	in := `# comment line
% another comment

10 20
20 30  999
   30   10
`
	rr, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Graph.N() != 3 || rr.Graph.M() != 3 {
		t.Fatalf("parsed N=%d M=%d, want 3/3", rr.Graph.N(), rr.Graph.M())
	}
	// Labels must be preserved in sorted order.
	if rr.OrigID[0] != 10 || rr.OrigID[1] != 20 || rr.OrigID[2] != 30 {
		t.Fatalf("OrigID = %v", rr.OrigID)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "a b\n", "1 b\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Fatalf("input %q accepted", bad)
		}
	}
}

func TestStats(t *testing.T) {
	g := mustBuild(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	s := ComputeStats(g)
	if s.N != 4 || s.M != 4 || s.MaxDegree != 3 || s.Degeneracy != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AverageDegree() != 2 {
		t.Fatalf("avg degree = %f", s.AverageDegree())
	}
	if !strings.Contains(s.String(), "n=4") {
		t.Fatalf("String() = %q", s.String())
	}
}

// TestQuickDegeneracyBounds property-checks D against its textbook bounds:
// D <= Δ and the average degree is at most 2D.
func TestQuickDegeneracyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		var b Builder
		for i := 0; i < n*3; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g, err := b.Build(n)
		if err != nil {
			return false
		}
		d := Degeneracy(g)
		if d > g.MaxDegree() {
			return false
		}
		if g.N() > 0 && float64(2*g.M())/float64(g.N()) > float64(2*d) {
			return false
		}
		// The degeneracy ordering certificate: <= d later neighbours each.
		cd := Cores(g)
		for i, v := range cd.Order {
			later := 0
			for _, u := range g.Neighbors(int(v)) {
				if cd.Pos[u] > int32(i) {
					later++
				}
			}
			if later > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
