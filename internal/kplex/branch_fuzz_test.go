package kplex

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// FuzzBranchKernel checks the branch kernel against a brute force over
// every vertex subset. The input decodes into a graph of at most 16
// vertices, a (k, q) cell and an option variant; the plex set of Run must
// equal the oracle's both sequentially and with two threads whose every
// recursion splits into a task that overflows a one-slot deque and runs
// inline inside the live frame, the path that nests a task root on top of
// a frame's scratch level. The oracle lives here rather than in
// internal/baseline because that package imports this one.
//
// Byte 0 picks k in 1..4, byte 1 q in 2k-1..2k+4, byte 2 the vertex count,
// byte 3 the variant (bit 0 FaPlexen branching, bit 1 the Basic ablation,
// bits 2-3 the include bound, or none); each later byte pair is an edge.
func FuzzBranchKernel(f *testing.F) {
	f.Add([]byte{1, 1, 8, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 4, 6})
	f.Add([]byte{2, 0, 12, 1, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 2, 4, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := 1 + int(data[0]%4)
		q := 2*k - 1 + int(data[1]%6)
		n := 1 + int(data[2]%16)
		variant := data[3]
		adj := make([]uint32, n)
		var b graph.Builder
		for i := 4; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			adj[u] |= 1 << v
			adj[v] |= 1 << u
		}
		g, err := b.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForcePlexes(adj, k, q)

		base := NewOptions(k, q)
		if variant&2 != 0 {
			base = BasicOptions(k, q)
		}
		if variant&1 != 0 {
			base.Branching = BranchFaPlexen
		}
		base.UpperBound = []UpperBoundStyle{UBOurs, UBSortFP, UBColor, UBNone}[variant>>2&3]

		split := base
		split.Threads = 2
		split.TaskTimeout = time.Nanosecond
		split.queueBound = 1
		for name, opts := range map[string]Options{"sequential": base, "split-inline": split} {
			got := collectPlexes(t, g, opts)
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("%s, k=%d q=%d n=%d variant=%d:\n got %v\nwant %v", name, k, q, n, variant, got, want)
			}
		}
	})
}

// collectPlexes runs the enumeration and returns its plexes in canonical
// order (each ascending, the list lexicographic).
func collectPlexes(t *testing.T, g *graph.Graph, opts Options) [][]int {
	t.Helper()
	var mu sync.Mutex
	var plexes [][]int
	opts.OnPlex = func(p []int) {
		mu.Lock()
		plexes = append(plexes, slices.Clone(p))
		mu.Unlock()
	}
	res, err := Run(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(plexes)) {
		t.Fatalf("Count %d, OnPlex saw %d plexes", res.Count, len(plexes))
	}
	slices.SortFunc(plexes, slices.Compare[[]int])
	return plexes
}

// bruteForcePlexes lists every maximal k-plex with at least q vertices of
// the graph with adjacency masks adj (at most 32 vertices), in canonical
// order, by testing every vertex subset.
func bruteForcePlexes(adj []uint32, k, q int) [][]int {
	n := len(adj)
	isPlex := func(s uint32) bool {
		size := bits.OnesCount32(s)
		for m := s; m != 0; m &= m - 1 {
			if bits.OnesCount32(adj[bits.TrailingZeros32(m)]&s) < size-k {
				return false
			}
		}
		return true
	}
	var out [][]int
	for s := uint32(0); s < 1<<n; s++ {
		if bits.OnesCount32(s) < q || !isPlex(s) {
			continue
		}
		maximal := true
		for v := 0; v < n && maximal; v++ {
			if s&(1<<v) == 0 && isPlex(s|1<<v) {
				maximal = false
			}
		}
		if !maximal {
			continue
		}
		var p []int
		for m := s; m != 0; m &= m - 1 {
			p = append(p, bits.TrailingZeros32(m))
		}
		out = append(out, p)
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return out
}

// TestBruteForcePlexesSmall pins the oracle itself on hand-checked cases.
func TestBruteForcePlexesSmall(t *testing.T) {
	// A 4-cycle 0-1-2-3: every vertex misses exactly one other, so the
	// whole cycle is a 2-plex, and its maximal cliques are the four edges.
	cycle := []uint32{0b1010, 0b0101, 0b1010, 0b0101}
	if got := fmt.Sprint(bruteForcePlexes(cycle, 2, 3)); got != "[[0 1 2 3]]" {
		t.Errorf("2-plexes of C4 = %s", got)
	}
	if got := fmt.Sprint(bruteForcePlexes(cycle, 1, 2)); got != "[[0 1] [0 3] [1 2] [2 3]]" {
		t.Errorf("cliques of C4 = %s", got)
	}
}
