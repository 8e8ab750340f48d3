package kplex

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// figure3SeedGraph hand-builds a seed graph matching the paper's running
// example (Figure 3 with k=2): P = {v1, v3}, C = {v2, v5, v7}, where
//
//	v1 is adjacent to v2, v5, v7 (degree 3 in G_i),
//	v3 is adjacent to v4, v6 (degree 2 in G_i), not to v1 or any of C,
//	v7 is adjacent to v1, v5, v6,
//	v5 is adjacent to v1, v4, v7,
//	v2 is adjacent to v1 only (within this fragment).
//
// Local ids: v1=0, v2=1, v3=2, v4=3, v5=4, v6=5, v7=6.
func figure3SeedGraph() *seedGraph {
	const n = 7
	sg := &seedGraph{nv: n, nAll: n, orig: make([]int32, n)}
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
	edge(2, 3) // v3-v4
	edge(2, 5) // v3-v6
	edge(4, 3) // v5-v4
	edge(4, 6) // v5-v7
	edge(6, 5) // v7-v6
	sg.degGi = make([]int, n)
	for i := 0; i < n; i++ {
		sg.degGi[i] = sg.adj[i].Count()
	}
	return sg
}

// TestExample56SupportBound reproduces the paper's Example 5.6: with
// P = {v1, v3}, C = {v2, v5, v7} and pivot v7, sup_P(v7) = 1 and K = ∅, so
// the Theorem 5.5 bound is |P| + 1 + 0 = 3.
func TestExample56SupportBound(t *testing.T) {
	sg := figure3SeedGraph()
	const k = 2
	P := bitset.New(sg.nAll)
	P.Add(0) // v1
	P.Add(2) // v3
	C := bitset.New(sg.nAll)
	C.Add(1) // v2
	C.Add(4) // v5
	C.Add(6) // v7

	degP := make([]int, sg.nAll)
	for _, v := range []int{0, 2, 1, 4, 6} {
		degP[v] = sg.adj[v].IntersectionCount(P)
	}
	var bs boundScratch
	ub := bs.supportBound(sg, k, 2, P, C, degP, 6 /* v7 */, false)
	if ub != 3 {
		t.Fatalf("Example 5.6 bound = %d, want 3", ub)
	}
}

// TestExample54DegreeBound reproduces Example 5.4: the Theorem 5.3 bound
// min_{u∈P} d_Gi(u) + k = min(3, 2) + 2 = 4.
func TestExample54DegreeBound(t *testing.T) {
	sg := figure3SeedGraph()
	const k = 2
	min := sg.degGi[0]
	if sg.degGi[2] < min {
		min = sg.degGi[2]
	}
	if got := min + k; got != 4 {
		t.Fatalf("Example 5.4 bound = %d, want 4", got)
	}
}

// TestSupportBoundIsUpperBound property-checks Theorem 5.5/5.7 on real seed
// graphs: the bound must dominate the size of every k-plex (within the
// candidate space) that extends the seed.
func TestSupportBoundIsUpperBound(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := gen.GNP(14, 0.55, 300+seed)
		relab, _ := graph.DegeneracyOrderedCopy(g)
		for _, kq := range []struct{ k, q int }{{2, 3}, {3, 5}} {
			opts := NewOptions(kq.k, kq.q)
			for s := 0; s < relab.N(); s++ {
				sg := buildSeedGraph(relab, s, &opts)
				if sg == nil || sg.nv > 16 {
					continue
				}
				P := bitset.New(sg.nAll)
				P.Add(0)
				C := sg.nbrSeed.Clone()
				degP := make([]int, sg.nAll)
				for v := 0; v < sg.nAll; v++ {
					degP[v] = sg.adj[v].IntersectionCount(P)
				}
				var bs boundScratch
				ub := bs.subtaskBound(sg, kq.k, 1, P, C, degP)

				// Brute-force the true maximum: every subset of {seed}∪C
				// containing the seed.
				cands := C.AppendTo(nil)
				best := 1
				for mask := 0; mask < 1<<len(cands); mask++ {
					set := []int{0}
					for i, c := range cands {
						if mask&(1<<i) != 0 {
							set = append(set, c)
						}
					}
					if len(set) <= best {
						continue
					}
					if localIsKPlex(sg, set, kq.k) {
						best = len(set)
					}
				}
				if ub < best {
					t.Fatalf("seed=%d s=%d k=%d: bound %d < achievable %d",
						seed, s, kq.k, ub, best)
				}
			}
		}
	}
}

// localIsKPlex checks the k-plex condition inside a seed graph.
func localIsKPlex(sg *seedGraph, set []int, k int) bool {
	for _, u := range set {
		d := 0
		for _, v := range set {
			if v != u && sg.adj[u].Contains(v) {
				d++
			}
		}
		if d < len(set)-k {
			return false
		}
	}
	return true
}

// TestSortedBoundNeverLooserThanNeeded: the FP-style bound must also be a
// valid upper bound and must never exceed... it may differ from the
// unsorted bound, but both must dominate the achievable maximum. Reuses
// the brute force above through the same harness.
func TestSortedBoundIsUpperBound(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gen.GNP(13, 0.6, 500+seed)
		relab, _ := graph.DegeneracyOrderedCopy(g)
		k, q := 2, 3
		opts := NewOptions(k, q)
		for s := 0; s < relab.N(); s++ {
			sg := buildSeedGraph(relab, s, &opts)
			if sg == nil || sg.nv > 15 {
				continue
			}
			P := bitset.New(sg.nAll)
			P.Add(0)
			C := sg.nbrSeed.Clone()
			vp := C.Any()
			if vp == -1 {
				continue
			}
			C2 := C.Clone()
			C2.Remove(vp)
			degP := make([]int, sg.nAll)
			for v := 0; v < sg.nAll; v++ {
				degP[v] = sg.adj[v].IntersectionCount(P)
			}
			var bs boundScratch
			ub := bs.supportBoundSorted(sg, k, 1, P, C2, degP, vp)

			// Brute-force max k-plex containing {0, vp} within {0}∪C.
			cands := C2.AppendTo(nil)
			best := 2
			if !localIsKPlex(sg, []int{0, vp}, k) {
				continue
			}
			for mask := 0; mask < 1<<len(cands); mask++ {
				set := []int{0, vp}
				for i, c := range cands {
					if mask&(1<<i) != 0 {
						set = append(set, c)
					}
				}
				if len(set) <= best {
					continue
				}
				if localIsKPlex(sg, set, k) {
					best = len(set)
				}
			}
			if ub < best {
				t.Fatalf("seed=%d s=%d: sorted bound %d < achievable %d", seed, s, ub, best)
			}
		}
	}
}
