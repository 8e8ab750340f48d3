package kplex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// reduceCTCPReference is the straightforward CTCP the queue-driven
// ReduceCTCP replaced: alternate full vertex and edge passes over sorted
// slices, splicing every deleted arc out, until a round changes nothing.
// Both reach the unique joint fixed point of the two monotone rules, so
// their outputs must be identical graphs.
func reduceCTCPReference(g graph.CSR, k, q int) graph.CSR {
	n := g.N()
	if n == 0 || q-2*k < 1 {
		return g
	}
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		adj[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	degMin := q - k
	cnMin := q - 2*k

	removeEdge := func(u int, v int32) {
		row := adj[u]
		for i, w := range row {
			if w == v {
				adj[u] = append(row[:i], row[i+1:]...)
				return
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if len(adj[v]) > 0 && len(adj[v]) < degMin {
				for _, u := range adj[v] {
					removeEdge(int(u), int32(v))
				}
				adj[v] = adj[v][:0]
				changed = true
			}
		}
		for u := 0; u < n; u++ {
			row := adj[u]
			for i := 0; i < len(row); {
				v := row[i]
				if int(v) > u && graph.CountCommon(adj[u], adj[int(v)]) < cnMin {
					adj[u] = append(adj[u][:i], adj[u][i+1:]...)
					row = adj[u]
					removeEdge(int(v), int32(u))
					changed = true
					continue
				}
				i++
			}
		}
	}

	var b graph.Builder
	for v := 0; v < n; v++ {
		for _, u := range adj[v] {
			if int32(v) < u {
				b.AddEdge(v, int(u))
			}
		}
	}
	reduced, err := b.Build(n)
	if err != nil {
		panic("kplex: ctcp rebuild: " + err.Error())
	}
	return reduced
}

// checkReduced asserts that ReduceCTCP(g,k,q) is exactly the reference's
// graph: same vertex count and same content digest, with sorted,
// symmetric rows that are a subset of g's.
func checkReduced(t *testing.T, name string, g graph.CSR, k, q int) graph.CSR {
	t.Helper()
	got, want := ReduceCTCP(g, k, q), reduceCTCPReference(g, k, q)
	if got.N() != g.N() {
		t.Fatalf("%s k=%d q=%d: vertex id space changed: %d -> %d", name, k, q, g.N(), got.N())
	}
	if graph.DigestOf(got) != graph.DigestOf(want) {
		t.Fatalf("%s k=%d q=%d: reduced graph differs from the reference (m=%d, reference m=%d)",
			name, k, q, got.M(), want.M())
	}
	arcs := 0
	for v := 0; v < got.N(); v++ {
		row := got.Neighbors(v)
		arcs += len(row)
		if got.Degree(v) != len(row) {
			t.Fatalf("%s k=%d q=%d: vertex %d: Degree %d, row length %d", name, k, q, v, got.Degree(v), len(row))
		}
		for i, u := range row {
			if i > 0 && row[i-1] >= u {
				t.Fatalf("%s k=%d q=%d: vertex %d: row not strictly sorted", name, k, q, v)
			}
			if !graph.HasEdgeIn(got, int(u), v) {
				t.Fatalf("%s k=%d q=%d: arc %d->%d has no reverse", name, k, q, v, u)
			}
			if !graph.HasEdgeIn(g, v, int(u)) {
				t.Fatalf("%s k=%d q=%d: arc %d->%d is not in the source", name, k, q, v, u)
			}
		}
	}
	if arcs != 2*got.M() {
		t.Fatalf("%s k=%d q=%d: %d arcs for M=%d", name, k, q, arcs, got.M())
	}
	return got
}

// TestReduceCTCPMatchesReference is the differential test of the
// queue-driven reduction against the splicing reference over the golden
// corpus and skewed generator graphs, including cells that reduce to an
// empty graph and q-2k < 1 cells where nothing can fire.
func TestReduceCTCPMatchesReference(t *testing.T) {
	cells := []struct{ k, q int }{{1, 3}, {1, 5}, {2, 5}, {2, 6}, {2, 8}, {2, 12}, {3, 7}, {3, 10}, {3, 18}}
	graphs := []gen.CorpusGraph{
		{Name: "chunglu-3k", Build: func() *graph.Graph { return gen.ChungLu(3000, 12, 2.3, 22) }},
		{Name: "chunglu-2k-dense", Build: func() *graph.Graph { return gen.ChungLu(2000, 30, 2.1, 5) }},
		{Name: "ba-3k", Build: func() *graph.Graph { return gen.BarabasiAlbert(3000, 8, 21) }},
		{Name: "planted-2k", Build: func() *graph.Graph {
			return gen.Planted(gen.PlantedConfig{N: 2000, BackgroundP: 0.002, Communities: 20, CommSize: 20, DropPerV: 1, Overlap: 2, Seed: 23})
		}},
		{Name: "gnp-300", Build: func() *graph.Graph { return gen.GNP(300, 0.08, 3) }},
	}
	if testing.Short() {
		graphs = graphs[len(graphs)-2:]
	}
	emptied, pruned := 0, 0
	for _, cg := range append(gen.Corpus(), graphs...) {
		g := cg.Build()
		for _, c := range cells {
			r := checkReduced(t, cg.Name, g, c.k, c.q)
			if c.q-2*c.k < 1 && r != graph.CSR(g) {
				t.Fatalf("%s k=%d q=%d: q-2k < 1 must return the input itself", cg.Name, c.k, c.q)
			}
			if g.M() > 0 && r.M() == 0 {
				emptied++
			} else if r.M() < g.M() {
				pruned++
			}
		}
	}
	if emptied == 0 || pruned == 0 {
		t.Fatalf("grid lacks coverage: %d cells reduced to empty, %d partly pruned", emptied, pruned)
	}
}

// TestReduceCTCPStoreSource runs the reduction over an mmap store reader
// with small blocks, so rows are decoded lazily and evicted mid-copy.
func TestReduceCTCPStoreSource(t *testing.T) {
	g := gen.ChungLu(2500, 14, 2.3, 7)
	path := filepath.Join(t.TempDir(), "g"+store.StoreExt)
	if err := store.WriteGraphFile(path, g, 64); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenFileCache(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, c := range []struct{ k, q int }{{2, 6}, {2, 8}, {3, 12}, {2, 40}} {
		got := checkReduced(t, "store", r, c.k, c.q)
		if mem := ReduceCTCP(g, c.k, c.q); graph.DigestOf(mem) != graph.DigestOf(got) {
			t.Fatalf("k=%d q=%d: store-backed and in-memory reductions differ", c.k, c.q)
		}
	}
}

// checkPrepareLegacy compares graph.Prepare with the two-peel prologue it
// replaced — KCore, then Cores of the core and its relabel — byte for
// byte in EncodePrepared's layout: rows, id mapping, later-neighbour
// offsets, coreness.
func checkPrepareLegacy(t *testing.T, name string, g graph.CSR, minCore int) {
	t.Helper()
	core, coreID := graph.KCore(g, minCore)
	cd := graph.Cores(core)
	relab, relID := graph.DegeneracyOrderedCopy(core)
	want := binary.AppendUvarint(nil, uint64(relab.N()))
	for v := 0; v < relab.N(); v++ {
		row := relab.Neighbors(v)
		want = binary.AppendUvarint(want, uint64(len(row)))
		prev := int32(0)
		for _, u := range row {
			want = binary.AppendUvarint(want, uint64(u-prev))
			prev = u
		}
	}
	for _, old := range relID {
		want = binary.AppendUvarint(want, uint64(coreID[old]))
	}
	for v := range relID {
		later, _ := slices.BinarySearch(relab.Neighbors(v), int32(v))
		want = binary.AppendUvarint(want, uint64(later))
	}
	for _, old := range relID {
		want = binary.AppendUvarint(want, uint64(cd.Coreness[old]))
	}
	if got := graph.EncodePrepared(nil, graph.Prepare(g, minCore)); !bytes.Equal(got, want) {
		t.Fatalf("%s minCore %d: Prepare differs from the two-peel prologue", name, minCore)
	}
}

// FuzzReduceCTCP decodes the input into a small graph and a (k,q) cell
// and checks the reduction against the reference, and the prologue of the
// reduced graph against the two-peel one. Byte 0 picks k, byte 1 picks q,
// byte 2 the vertex count; each later byte pair is an edge.
func FuzzReduceCTCP(f *testing.F) {
	f.Add([]byte{0, 3, 10, 0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{1, 6, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		k := 1 + int(data[0]%3)
		q := k + 1 + int(data[1]%12)
		n := 1 + int(data[2]%48)
		var b graph.Builder
		for i := 3; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g, err := b.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("fuzz n=%d m=%d", n, g.M())
		checkPrepareLegacy(t, name, checkReduced(t, name, g, k, q), q-k)
	})
}

func TestReduceCTCPPreservesResults(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gen.ChungLu(800, 14, 2.3, 400+seed)
		for _, kq := range []struct{ k, q int }{{2, 8}, {3, 10}} {
			plain := mustRun(t, g, NewOptions(kq.k, kq.q))
			withCTCP := NewOptions(kq.k, kq.q)
			withCTCP.UseCTCP = true
			reduced := mustRun(t, g, withCTCP)
			if plain.Count != reduced.Count {
				t.Fatalf("seed=%d k=%d q=%d: CTCP changed count %d -> %d",
					seed, kq.k, kq.q, plain.Count, reduced.Count)
			}
		}
	}
}

func TestReduceCTCPActuallyPrunes(t *testing.T) {
	// A sparse power-law graph with q-2k = 4: most edges have fewer than 4
	// common neighbours and must disappear.
	g := gen.ChungLu(2000, 6, 2.4, 9)
	r := ReduceCTCP(g, 2, 8)
	if r.M() >= g.M() {
		t.Fatalf("no pruning: %d -> %d edges", g.M(), r.M())
	}
	if r.N() != g.N() {
		t.Fatalf("vertex id space changed: %d -> %d", g.N(), r.N())
	}
}

func TestReduceCTCPKeepsDensePlexes(t *testing.T) {
	// A clique of 12 inside noise must survive with all internal edges.
	cfg := gen.PlantedConfig{
		N: 300, BackgroundP: 0.01, Communities: 1, CommSize: 12, DropPerV: 0, Seed: 4,
	}
	g := gen.Planted(cfg)
	r := ReduceCTCP(g, 2, 10)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if !graph.HasEdgeIn(r, u, v) {
				t.Fatalf("clique edge (%d,%d) was pruned", u, v)
			}
		}
	}
}

func TestReduceCTCPNoOpCases(t *testing.T) {
	g := gen.GNP(50, 0.3, 1)
	// q-2k <= 0: must return the graph unchanged (same pointer is fine).
	if r := ReduceCTCP(g, 3, 5); r.M() != g.M() {
		t.Fatal("threshold-free reduction changed the graph")
	}
	empty, _ := (&graph.Builder{}).Build(0)
	if r := ReduceCTCP(empty, 2, 8); r.N() != 0 {
		t.Fatal("empty graph mishandled")
	}
}
