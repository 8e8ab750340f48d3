package gen

// Additional generator models. The stochastic block model gives controllable
// community structure (sharper than Planted: k-plexes are not guaranteed,
// only density contrast), Watts-Strogatz gives high clustering with short
// paths (protein-interaction-like), and random regular graphs provide the
// degenerate workload where degree-based pruning is useless — a stress case
// for the pivot and pair rules.

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// SBMConfig parameterises a stochastic block model.
type SBMConfig struct {
	// BlockSizes lists the community sizes; the graph has sum(BlockSizes)
	// vertices, assigned to blocks in index order.
	BlockSizes []int
	// PIn is the within-block edge probability.
	PIn float64
	// POut is the cross-block edge probability.
	POut float64
	Seed int64
}

// SBM generates a stochastic block model graph.
func SBM(cfg SBMConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 0
	block := make([]int, 0)
	for bi, s := range cfg.BlockSizes {
		for i := 0; i < s; i++ {
			block = append(block, bi)
		}
		n += s
	}
	var b graph.Builder
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := cfg.POut
			if block[u] == block[v] {
				p = cfg.PIn
			}
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build(n)
	if err != nil {
		panic("gen: sbm: " + err.Error())
	}
	return g
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex is joined to its k nearest neighbours (k rounded down to even),
// with each edge rewired to a random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	if n < 3 {
		g, _ := new(graph.Builder).Build(n)
		return g
	}
	half := k / 2
	if half < 1 {
		half = 1
	}
	if half >= n/2 {
		half = (n - 1) / 2
	}
	rng := rand.New(rand.NewSource(seed))
	// Track the current edge set so rewiring avoids duplicates.
	type edge struct{ u, v int }
	has := make(map[edge]bool, n*half)
	norm := func(u, v int) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	edges := make([]edge, 0, n*half)
	for u := 0; u < n; u++ {
		for d := 1; d <= half; d++ {
			e := norm(u, (u+d)%n)
			if !has[e] {
				has[e] = true
				edges = append(edges, e)
			}
		}
	}
	for i, e := range edges {
		if rng.Float64() >= beta {
			continue
		}
		// Rewire the far endpoint to a uniform non-neighbour of e.u.
		for attempt := 0; attempt < 16; attempt++ {
			w := rng.Intn(n)
			if w == e.u {
				continue
			}
			ne := norm(e.u, w)
			if has[ne] {
				continue
			}
			delete(has, e)
			has[ne] = true
			edges[i] = ne
			break
		}
	}
	var b graph.Builder
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.u, e.v)
	}
	g, err := b.Build(n)
	if err != nil {
		panic("gen: ws: " + err.Error())
	}
	return g
}

// RandomRegular returns a d-regular graph on n vertices via the pairing
// model (n*d must be even; panics otherwise). Instead of restarting the
// whole pairing whenever a self-loop or duplicate edge appears — which
// succeeds with probability ~exp(-(d²-1)/4) per attempt and effectively
// never converges beyond d ≈ 6 — conflicting pairs are repaired locally:
// each round re-shuffles the stubs of the bad pairs together with an equal
// number of randomly chosen good pairs (the extra stubs break parity
// deadlocks such as two identical duplicate pairs). The expected number of
// conflicts shrinks geometrically, so any practical (n, d) converges in a
// handful of rounds, deterministically for a fixed seed.
func RandomRegular(n, d int, seed int64) *graph.Graph {
	if n*d%2 != 0 {
		panic("gen: regular: n*d must be even")
	}
	if d >= n {
		panic("gen: regular: need d < n")
	}
	rng := rand.New(rand.NewSource(seed))
	m := n * d / 2
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	// pairs[i] = (stubs[2i], stubs[2i+1]).
	type edge struct{ u, v int }
	seen := make(map[edge]bool, m)
	var bad []int
	for round := 0; round < 1000; round++ {
		clear(seen)
		bad = bad[:0]
		for i := 0; i < m; i++ {
			u, v := stubs[2*i], stubs[2*i+1]
			if u == v {
				bad = append(bad, i)
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[edge{u, v}] {
				bad = append(bad, i)
				continue
			}
			seen[edge{u, v}] = true
		}
		if len(bad) == 0 {
			var b graph.Builder
			b.Grow(m)
			for i := 0; i < m; i++ {
				b.AddEdge(stubs[2*i], stubs[2*i+1])
			}
			g, err := b.Build(n)
			if err != nil {
				panic("gen: regular: " + err.Error())
			}
			return g
		}
		// Re-pair the bad pairs' stubs together with as many random good
		// pairs' stubs, shuffled among themselves.
		pick := make(map[int]bool, 2*len(bad))
		for _, i := range bad {
			pick[i] = true
		}
		for len(pick) < 2*len(bad) && len(pick) < m {
			pick[rng.Intn(m)] = true
		}
		idx := make([]int, 0, len(pick))
		for i := range pick {
			idx = append(idx, i)
		}
		sort.Ints(idx) // map iteration order must not leak into the output
		pool := make([]int, 0, 2*len(idx))
		for _, i := range idx {
			pool = append(pool, stubs[2*i], stubs[2*i+1])
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for x, i := range idx {
			stubs[2*i], stubs[2*i+1] = pool[2*x], pool[2*x+1]
		}
	}
	panic("gen: regular: pairing model failed to converge")
}
