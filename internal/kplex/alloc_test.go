//go:build !race

package kplex

// The zero-allocation guard of the seed pipeline. Seed-subgraph
// construction dominates enumeration cost on the paper's workloads, so the
// prepared-graph refactor moved it onto per-worker scratch and pooled
// storage; this test pins the steady state at exactly zero heap
// allocations per build so a regression (a map creeping back in, a slice
// losing its pooling) fails CI rather than silently eating the win. Race
// builds are excluded: the race runtime instruments allocations.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSeedBuildZeroAlloc drives the scratch-based builder exactly as an
// engine worker does — one scratch, one recycled storage — over every seed
// of each row's prepared graph, and requires zero steady-state allocations
// per build once the first warm-up pass has grown the buffers. The rows
// are a GNP graph that must build seed graphs, plus every corpus graph at
// its golden (k, q) combos and one strict threshold, where the prologue
// leaves the smallest candidate sets; each runs with pair pruning off and
// on.
func TestSeedBuildZeroAlloc(t *testing.T) {
	type row struct {
		name  string
		g     *graph.Graph
		k, q  int
		build bool // the row must build at least one seed graph
	}
	rows := []row{{name: "gnp-300", g: gen.GNP(300, 0.08, 7), k: 2, q: 6, build: true}}
	for _, cg := range gen.Corpus() {
		g := cg.Build()
		strict := [2]int{2, 12}
		switch cg.Name {
		case "gnp-dense":
			strict = [2]int{2, 10}
		case "regular-flat":
			strict = [2]int{2, 8}
		}
		for _, kq := range append(goldenCombos(cg.Name), strict) {
			rows = append(rows, row{name: cg.Name, g: g, k: kq[0], q: kq[1]})
		}
	}

	for _, r := range rows {
		for _, usePair := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/k%d_q%d/pair=%v", r.name, r.k, r.q, usePair), func(t *testing.T) {
				opts := NewOptions(r.k, r.q)
				opts.UsePairPruning = usePair

				p, err := Prepare(r.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				relab := p.pg.G()
				if relab.N() == 0 {
					t.Skip("the prologue empties the graph: no seed builds to measure")
				}
				sc := newSeedScratch(relab.N())
				st := &seedStorage{}

				// Warm-up: one full pass sizes every buffer to the run's maximum.
				built := 0
				for s := 0; s < relab.N(); s++ {
					if sg := sc.build(relab, p.pg, s, &opts, st, nil); sg != nil {
						built++
					}
				}
				if r.build && built == 0 {
					t.Fatal("no seed graphs built; test graph too sparse to exercise the builder")
				}

				s := 0
				allocs := testing.AllocsPerRun(200, func() {
					sc.build(relab, p.pg, s, &opts, st, nil)
					if s++; s == relab.N() {
						s = 0
					}
				})
				if allocs != 0 {
					t.Errorf("steady-state seed build allocates %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}

// TestSeedBuildZeroAllocDense is the same guard with the dense bit-parallel
// kernel forced on every build (a denser graph and an unbounded crossover),
// pinning that the row-major arena and the rowP row table stay pooled: the
// dense path must be exactly as allocation-free as the merge path it
// routes around.
func TestSeedBuildZeroAllocDense(t *testing.T) {
	opts := NewOptions(2, 7) // q-2k = 3 > 0: the Corollary 5.2 peel is live
	opts.denseCrossover = 1 << 20

	g := gen.GNP(300, 0.15, 7)
	p, err := Prepare(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	relab := p.pg.G()
	sc := newSeedScratch(relab.N())
	st := &seedStorage{}

	var stats Stats
	built := 0
	for s := 0; s < relab.N(); s++ {
		if sg := sc.build(relab, p.pg, s, &opts, st, &stats); sg != nil {
			built++
		}
	}
	if built == 0 {
		t.Fatal("no seed graphs built; test graph too sparse to exercise the builder")
	}
	if stats.DenseBuilds == 0 {
		t.Fatal("warm-up pass never took the dense path; the guard is not covering the kernel")
	}

	s := 0
	allocs := testing.AllocsPerRun(200, func() {
		sc.build(relab, p.pg, s, &opts, st, nil)
		if s++; s == relab.N() {
			s = 0
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state dense seed build allocates %.1f objects/op, want 0", allocs)
	}
}
