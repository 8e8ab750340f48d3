package graph

import (
	"math/rand"
	"testing"
)

func randomTestGraph(t *testing.T, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b Builder
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPreparedMatchesLegacyPrologue pins Prepare to the composition it
// replaced (KCore + DegeneracyOrderedCopy): same working graph, same
// id mapping — the property that keeps checkpoint seed ids stable across
// the refactor.
func TestPreparedMatchesLegacyPrologue(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomTestGraph(t, 80, 0.12, seed)
		for _, minCore := range []int{0, 2, 4} {
			p := Prepare(g, minCore)

			core, coreID := KCore(g, minCore)
			relab, relID := DegeneracyOrderedCopy(core)
			if p.N() != relab.N() {
				t.Fatalf("seed %d minCore %d: Prepared has %d vertices, legacy %d", seed, minCore, p.N(), relab.N())
			}
			for v := 0; v < relab.N(); v++ {
				if want := coreID[relID[v]]; p.ToInputIDs()[v] != want {
					t.Fatalf("seed %d minCore %d: ToInputIDs()[%d]=%d, legacy %d", seed, minCore, v, p.ToInputIDs()[v], want)
				}
				a, b := p.G().Neighbors(v), relab.Neighbors(v)
				if len(a) != len(b) {
					t.Fatalf("seed %d minCore %d: vertex %d degree %d, legacy %d", seed, minCore, v, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("seed %d minCore %d: vertex %d adjacency differs", seed, minCore, v)
					}
				}
			}
		}
	}
}

// TestPreparedLaterNeighbors verifies the precomputed later/earlier split
// against the definition (sorted adjacency around the vertex's own id).
func TestPreparedLaterNeighbors(t *testing.T) {
	g := randomTestGraph(t, 60, 0.2, 9)
	p := Prepare(g, 2)
	for v := 0; v < p.N(); v++ {
		later, earlier := p.LaterNeighbors(v), p.EarlierNeighbors(v)
		if len(later)+len(earlier) != len(p.G().Neighbors(v)) {
			t.Fatalf("vertex %d: split loses neighbours", v)
		}
		for _, u := range earlier {
			if u >= int32(v) {
				t.Fatalf("vertex %d: earlier neighbour %d not earlier", v, u)
			}
		}
		for _, u := range later {
			if u <= int32(v) {
				t.Fatalf("vertex %d: later neighbour %d not later", v, u)
			}
		}
	}
}

// Coreness returns the core number of working-graph vertex v. No engine
// path reads the stored coreness; the tests of this package and of
// graph_test check it against a direct decomposition.
func (p *Prepared) Coreness(v int) int { return int(p.coreness[v]) }

// TestPreparedCoreness checks the stored coreness against a direct core
// decomposition of the working graph.
func TestPreparedCoreness(t *testing.T) {
	g := randomTestGraph(t, 70, 0.15, 4)
	p := Prepare(g, 2)
	cd := Cores(p.G())
	for v := 0; v < p.N(); v++ {
		if p.Coreness(v) != int(cd.Coreness[v]) {
			t.Fatalf("vertex %d: Coreness=%d, direct decomposition %d", v, p.Coreness(v), cd.Coreness[v])
		}
	}
}

// TestCountCommon pins the merge intersection against a map oracle.
func TestCountCommon(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{nil, nil, 0},
		{[]int32{1, 2, 3}, nil, 0},
		{[]int32{1, 2, 3}, []int32{3, 4, 5}, 1},
		{[]int32{1, 2, 3, 9}, []int32{0, 2, 3, 9, 11}, 3},
		{[]int32{5}, []int32{5}, 1},
	}
	for _, tc := range cases {
		if got := CountCommon(tc.a, tc.b); got != tc.want {
			t.Errorf("CountCommon(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestDigestMemoized pins the compute-once contract: repeated digests of
// one graph return identical values (including under concurrency), and
// distinct graphs still digest differently.
func TestDigestMemoized(t *testing.T) {
	g := randomTestGraph(t, 40, 0.2, 1)
	first := Digest(g)
	done := make(chan [32]byte, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- Digest(g) }()
	}
	for i := 0; i < 8; i++ {
		if d := <-done; d != first {
			t.Fatal("concurrent Digest calls disagree")
		}
	}
	other := randomTestGraph(t, 40, 0.2, 2)
	if Digest(other) == first {
		t.Fatal("distinct graphs share a digest")
	}
}
