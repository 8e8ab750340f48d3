package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestSBMStructure(t *testing.T) {
	cfg := SBMConfig{
		BlockSizes: []int{30, 30, 30},
		PIn:        0.5,
		POut:       0.02,
		Seed:       1,
	}
	g := SBM(cfg)
	if g.N() != 90 {
		t.Fatalf("n = %d, want 90", g.N())
	}
	// Count within- vs cross-block edges; with this contrast the within
	// count must dominate.
	blockOf := func(v int) int { return v / 30 }
	within, cross := 0, 0
	for _, e := range g.Edges() {
		if blockOf(int(e.U)) == blockOf(int(e.V)) {
			within++
		} else {
			cross++
		}
	}
	if within <= 4*cross {
		t.Errorf("within=%d cross=%d: expected strong community contrast", within, cross)
	}
}

func TestSBMDeterministic(t *testing.T) {
	cfg := SBMConfig{BlockSizes: []int{20, 20}, PIn: 0.4, POut: 0.05, Seed: 7}
	a, b := SBM(cfg), SBM(cfg)
	if a.M() != b.M() {
		t.Errorf("same seed produced different graphs: %d vs %d edges", a.M(), b.M())
	}
}

func TestSBMEmpty(t *testing.T) {
	g := SBM(SBMConfig{Seed: 1})
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty config should give empty graph, got n=%d m=%d", g.N(), g.M())
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0 keeps the pure ring lattice: every vertex has degree k.
	g := WattsStrogatz(20, 4, 0, 1)
	if g.N() != 20 {
		t.Fatalf("n = %d, want 20", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("lattice degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	// The ring lattice has high clustering.
	if cc := graph.AverageClustering(g); cc < 0.4 {
		t.Errorf("lattice clustering %v, want >= 0.4", cc)
	}
}

func TestWattsStrogatzRewiringPreservesEdgeCount(t *testing.T) {
	g0 := WattsStrogatz(50, 6, 0, 2)
	g1 := WattsStrogatz(50, 6, 0.3, 2)
	if g0.M() != g1.M() {
		t.Errorf("rewiring changed edge count: %d -> %d", g0.M(), g1.M())
	}
}

func TestWattsStrogatzTiny(t *testing.T) {
	g := WattsStrogatz(2, 2, 0.5, 3)
	if g.N() != 2 || g.M() != 0 {
		t.Errorf("tiny WS should be edgeless, got n=%d m=%d", g.N(), g.M())
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(30, 4, 5)
	if g.N() != 30 || g.M() != 60 {
		t.Fatalf("n=%d m=%d, want 30, 60", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestRandomRegularOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for odd n*d")
		}
	}()
	RandomRegular(5, 3, 1)
}

func TestRandomRegularDTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for d >= n")
		}
	}()
	RandomRegular(4, 4, 1)
}
