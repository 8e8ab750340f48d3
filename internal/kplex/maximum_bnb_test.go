package kplex

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestGreedyKPlexIsValid(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for seed := int64(0); seed < 5; seed++ {
			g := gen.GNP(40, 0.3, seed)
			p := GreedyKPlex(g, k)
			if len(p) == 0 {
				t.Fatalf("k=%d seed=%d: greedy found nothing", k, seed)
			}
			if !IsKPlex(g, p, k) {
				t.Errorf("k=%d seed=%d: greedy result %v is not a k-plex", k, seed, p)
			}
		}
	}
}

func TestGreedyKPlexEdgeCases(t *testing.T) {
	empty, _ := new(graph.Builder).Build(0)
	if p := GreedyKPlex(empty, 2); p != nil {
		t.Errorf("empty graph: got %v", p)
	}
	g := gen.GNP(10, 0.5, 1)
	if p := GreedyKPlex(g, 0); p != nil {
		t.Errorf("k=0: got %v", p)
	}
}

// TestFindMaximumReturnsKPlex checks the solver's answer on one graph of
// each generator family: a k-plex, or nil when none qualifies.
func TestFindMaximumReturnsKPlex(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*graph.Graph{
		"gnp-40":  gen.GNP(40, 0.35, 1),
		"gnp-60":  gen.GNP(60, 0.2, 2),
		"chunglu": gen.ChungLu(120, 12, 2.2, 3),
		"planted": gen.Planted(gen.PlantedConfig{
			N: 80, BackgroundP: 0.02, Communities: 5, CommSize: 11,
			DropPerV: 1, Overlap: 2, Seed: 4,
		}),
		"ws": gen.WattsStrogatz(80, 10, 0.1, 5),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3} {
			got, err := FindMaximumKPlex(ctx, g, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if got != nil && !IsKPlex(g, got, k) {
				t.Errorf("%s k=%d: result is not a k-plex: %v", name, k, got)
			}
		}
	}
}

func TestBnBNoQualifyingPlex(t *testing.T) {
	// A single edge has no 2-plex with >= 3 vertices.
	var b graph.Builder
	b.AddEdge(0, 1)
	g, _ := b.Build(2)
	got, err := FindMaximumKPlex(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("expected nil, got %v", got)
	}
}

func TestBnBRejectsBadK(t *testing.T) {
	g := gen.GNP(5, 0.5, 1)
	if _, err := FindMaximumKPlex(context.Background(), g, 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestBnBHonorsContext(t *testing.T) {
	g := gen.ChungLu(2000, 30, 2.1, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FindMaximumKPlex(ctx, g, 3); err == nil {
		t.Error("expected context error")
	}
}

func TestEnumerateTopK(t *testing.T) {
	g := gen.Planted(gen.PlantedConfig{
		N: 100, BackgroundP: 0.02, Communities: 6, CommSize: 10,
		DropPerV: 1, Overlap: 0, Seed: 7,
	})
	ctx := context.Background()
	k, q := 2, 5

	// Ground truth: full enumeration sorted by size.
	var all [][]int
	opts := NewOptions(k, q)
	opts.OnPlex = func(p []int) { all = append(all, append([]int(nil), p...)) }
	full, err := Run(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Count < 5 {
		t.Fatalf("test graph too sparse: only %d plexes", full.Count)
	}

	for _, topN := range []int{1, 3, int(full.Count), int(full.Count) + 10} {
		got, res, err := EnumerateTopK(ctx, g, NewOptions(k, q), topN)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != full.Count {
			t.Errorf("topN=%d: Count = %d, want %d", topN, res.Count, full.Count)
		}
		wantLen := topN
		if wantLen > int(full.Count) {
			wantLen = int(full.Count)
		}
		if len(got) != wantLen {
			t.Fatalf("topN=%d: returned %d plexes, want %d", topN, len(got), wantLen)
		}
		// Sizes must be non-increasing and match the global top sizes.
		sizes := make([]int, len(all))
		for i, p := range all {
			sizes[i] = len(p)
		}
		sortDesc(sizes)
		for i, p := range got {
			if len(p) != sizes[i] {
				t.Errorf("topN=%d: result %d has size %d, want %d", topN, i, len(p), sizes[i])
			}
			if !IsMaximalKPlex(g, p, k) {
				t.Errorf("topN=%d: result %d is not maximal", topN, i)
			}
		}
	}
}

func TestEnumerateTopKBadN(t *testing.T) {
	g := gen.GNP(10, 0.5, 1)
	if _, _, err := EnumerateTopK(context.Background(), g, NewOptions(2, 3), 0); err == nil {
		t.Error("expected error for topN=0")
	}
}

func TestEnumerateTopKParallel(t *testing.T) {
	g := gen.ChungLu(400, 16, 2.2, 8)
	seqOpts := NewOptions(2, 8)
	seq, _, err := EnumerateTopK(context.Background(), g, seqOpts, 5)
	if err != nil {
		t.Fatal(err)
	}
	parOpts := NewOptions(2, 8)
	parOpts.Threads = 4
	par, _, err := EnumerateTopK(context.Background(), g, parOpts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("parallel returned %d, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if len(seq[i]) != len(par[i]) {
			t.Errorf("rank %d: size %d (par) vs %d (seq)", i, len(par[i]), len(seq[i]))
		}
	}
}

func sortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
