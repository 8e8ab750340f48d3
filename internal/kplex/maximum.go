package kplex

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// This file implements maximum k-plex finding on top of the enumerator —
// the companion problem solved by the BS/kPlexS line of work the paper
// reviews in Section 2. The approach is the standard "guess the size"
// reduction: binary-search the largest q for which a k-plex with at least
// q vertices exists, answering each existence query with a first-hit
// enumeration run (Options.FirstOnly). Each query benefits from the full
// pruning stack, and a hit at size s > q immediately lifts the lower bound
// to s.

// FindMaximumKPlex returns a maximum-cardinality k-plex of g among those
// with at least 2k-1 vertices (the connectivity regime of Theorem 3.3 that
// the search decomposition requires). If no such k-plex exists it returns
// nil: smaller k-plexes always exist trivially (any k vertices form one)
// but are rarely meaningful, and finding the largest of those would need a
// different decomposition.
func FindMaximumKPlex(ctx context.Context, g *graph.Graph, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("kplex: k must be >= 1, got %d", k)
	}
	lo := 2*k - 1 // smallest admissible q
	// Degeneracy upper bound: a k-plex P has minimum internal degree
	// |P|-k, so G has a (|P|-k)-core and |P| <= D+k.
	hi := graph.Degeneracy(g) + k
	if hi < lo {
		return nil, nil
	}

	var best []int
	exists := func(q int) ([]int, error) {
		opts := NewOptions(k, q)
		opts.FirstOnly = true
		var mu sync.Mutex
		var found []int
		opts.OnPlex = func(p []int) {
			mu.Lock()
			if found == nil {
				found = append([]int(nil), p...)
			}
			mu.Unlock()
		}
		if _, err := Run(ctx, g, opts); err != nil {
			return nil, err
		}
		return found, nil
	}

	// Invariant: a k-plex of size len(best) is in hand (once non-nil);
	// sizes > hi are impossible. Probe the midpoint until the window
	// closes.
	for lo <= hi {
		mid := (lo + hi + 1) / 2
		if lo == hi {
			mid = lo
		}
		p, err := exists(mid)
		if err != nil {
			return best, err
		}
		if p == nil {
			hi = mid - 1
			continue
		}
		if len(p) > len(best) {
			best = p
		}
		lo = len(p) + 1
	}
	return best, nil
}

// GreedyKPlex returns a (usually good) k-plex found greedily: vertices are
// scanned in reverse degeneracy order (densest first) and added whenever
// the set stays a k-plex. A standalone heuristic: a quick lower bound on
// the maximum k-plex size.
func GreedyKPlex(g *graph.Graph, k int) []int {
	if g.N() == 0 || k < 1 {
		return nil
	}
	cd := graph.Cores(g)
	var P []int
	degP := make(map[int]int) // degree into P for members and frontier
	for i := g.N() - 1; i >= 0; i-- {
		v := int(cd.Order[i])
		// P ∪ {v} is a k-plex iff v misses at most k-1 members and no
		// member's budget overflows.
		dv := 0
		for _, u := range g.Neighbors(v) {
			if _, in := degP[int(u)]; in {
				dv++
			}
		}
		if len(P)+1-dv > k {
			continue
		}
		ok := true
		for _, u := range P {
			du := degP[u]
			if !g.HasEdge(u, v) && len(P)+1-du > k {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, u := range P {
			if g.HasEdge(u, v) {
				degP[u]++
			}
		}
		degP[v] = dv
		P = append(P, v)
	}
	return P
}
