package kplex

import (
	"testing"

	"repro/internal/bitset"
)

// figure3ExactSeedGraph reconstructs the paper's Figure 3 so that all three
// worked examples hold simultaneously (the reconstruction in bound_test.go
// predates Example 4.1's constraints):
//
//   - Example 5.4 needs d_Gi(v1) = 3 and d_Gi(v3) = 2;
//   - Example 4.1 needs M0 = {v3} in G[P∪C] and N̄_C(v3) = {v5, v7},
//     so v3 is adjacent to v2 (and one vertex outside P∪C: v4);
//   - Example 4.1's re-pick must choose v7, so v5 needs a higher degree in
//     G[P∪C] than v7: v5 is adjacent to v1, v2 and v7; v7 to v1 and v5;
//   - Example 5.6 needs N̄_P(v7) = {v3}, N_C(v7) = {v5}, N̄_P(v5) = {v3}.
//
// Local ids: v1=0, v2=1, v3=2, v4=3, v5=4, v6=5, v7=6.
func figure3ExactSeedGraph() *seedGraph {
	const n = 7
	sg := &seedGraph{nv: n, pWords: (n + 63) / 64, nAll: n, orig: make([]int32, n)}
	sg.adj = make([]*bitset.Set, n)
	for i := range sg.adj {
		sg.adj[i] = bitset.New(n)
	}
	edge := func(a, b int) {
		sg.adj[a].Add(b)
		sg.adj[b].Add(a)
	}
	edge(0, 1) // v1-v2
	edge(0, 4) // v1-v5
	edge(0, 6) // v1-v7
	edge(1, 2) // v2-v3
	edge(1, 4) // v2-v5
	edge(2, 3) // v3-v4
	edge(4, 6) // v5-v7
	sg.degGi = make([]int, n)
	for i := 0; i < n; i++ {
		sg.degGi[i] = sg.adj[i].Count()
	}
	return sg
}

// TestExample41PivotSelection walks the paper's Example 4.1 with k = 2,
// P = {v1, v3}, C = {v2, v5, v7}: the minimum-degree pivot lands on v3 ∈ P
// (M0 = M = {v3}), and the re-pick among v3's C non-neighbours {v5, v7}
// must select v7.
func TestExample41PivotSelection(t *testing.T) {
	sg := figure3ExactSeedGraph()
	const k, sizeP = 2, 2

	P := bitset.New(sg.nAll)
	P.Add(0) // v1
	P.Add(2) // v3
	C := bitset.New(sg.nAll)
	C.Add(1) // v2
	C.Add(4) // v5
	C.Add(6) // v7

	w := &worker{eng: &engine{opts: NewOptions(k, 3)}}
	w.prepare(sg)
	lv := w.level(0)

	// Fill the degree state exactly as branch() does before pivoting.
	pc := P.Clone()
	pc.Or(C)
	minDeg, argMin := sg.nAll, -1
	pc.ForEach(func(v int) {
		lv.degP[v] = sg.adj[v].IntersectionCount(P)
		lv.degPC[v] = sg.adj[v].IntersectionCount(pc)
		if lv.degPC[v] < minDeg {
			minDeg, argMin = lv.degPC[v], v
		}
	})

	// Lines 7-9: the unique minimum-degree vertex is v3 (local 2), in P.
	if argMin != 2 {
		t.Fatalf("M0 pivot = local %d, want 2 (v3)", argMin)
	}
	count := 0
	pc.ForEach(func(v int) {
		if lv.degPC[v] == minDeg {
			count++
		}
	})
	if count != 1 {
		t.Fatalf("M0 has %d vertices, want exactly {v3}", count)
	}

	// Line 16: re-pick from N̄_C(v3) = {v5, v7} (v2 is v3's neighbour).
	if sg.adj[2].Contains(4) || sg.adj[2].Contains(6) || !sg.adj[2].Contains(1) {
		t.Fatal("reconstruction broken: N̄_C(v3) should be {v5, v7}")
	}
	if got := w.repick(sg, lv, C, P, sizeP, 2); got != 6 {
		t.Fatalf("re-picked pivot = local %d, want 6 (v7)", got)
	}
}

// The exact reconstruction must also satisfy Examples 5.4 and 5.6, pinning
// all three worked examples to one graph.
func TestFigure3ExactSatisfiesBoundExamples(t *testing.T) {
	sg := figure3ExactSeedGraph()
	const k = 2

	// Example 5.4: min(d(v1), d(v3)) + k = min(3, 2) + 2 = 4.
	if sg.degGi[0] != 3 || sg.degGi[2] != 2 {
		t.Fatalf("degrees d(v1)=%d d(v3)=%d, want 3 and 2", sg.degGi[0], sg.degGi[2])
	}

	// Example 5.6: support bound for pivot v7 is |P| + sup(v7) + |K| = 3.
	P := bitset.New(sg.nAll)
	P.Add(0)
	P.Add(2)
	C := bitset.New(sg.nAll)
	C.Add(1)
	C.Add(4)
	C.Add(6)
	degP := make([]int, sg.nAll)
	for _, v := range []int{0, 1, 2, 4, 6} {
		degP[v] = sg.adj[v].IntersectionCount(P)
	}
	var bs boundScratch
	if ub := bs.supportBound(sg, k, 2, P, C, degP, 6, false); ub != 3 {
		t.Fatalf("Example 5.6 bound on exact graph = %d, want 3", ub)
	}
}
