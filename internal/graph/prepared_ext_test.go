package graph_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/store"
)

// TestPreparedMatchesLegacyPrologueSkewed pins Prepare to the
// KCore + DegeneracyOrderedCopy composition on skewed graphs of a few
// thousand vertices, in memory and through an mmap store reader: same
// working graph, id mapping, coreness and later-neighbour split. These
// are the shapes whose hubs and long rows the small random graphs of
// TestPreparedMatchesLegacyPrologue never produce.
func TestPreparedMatchesLegacyPrologueSkewed(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu-4k", gen.ChungLu(4000, 12, 2.2, 31)},
		{"ba-3k", gen.BarabasiAlbert(3000, 6, 32)},
	}
	for _, tc := range graphs {
		path := filepath.Join(t.TempDir(), tc.name+store.StoreExt)
		if err := store.WriteGraphFile(path, tc.g, 128); err != nil {
			t.Fatal(err)
		}
		r, err := store.OpenFileCache(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, minCore := range []int{0, 3, 6, 9} {
			want := graph.Prepare(tc.g, minCore)
			checkPreparedAgainstLegacy(t, tc.name, tc.g, minCore, want)
			got := graph.Prepare(r, minCore)
			if graph.DigestOf(got.G()) != graph.DigestOf(want.G()) || !slices.Equal(got.ToInputIDs(), want.ToInputIDs()) {
				t.Fatalf("%s minCore %d: store-backed Prepare differs from in-memory", tc.name, minCore)
			}
			checkPreparedAgainstLegacy(t, tc.name+"/store", r, minCore, got)
		}
		r.Close() //nolint:errcheck // read-only mapping
	}
}

func checkPreparedAgainstLegacy(t *testing.T, name string, g graph.CSR, minCore int, p *graph.Prepared) {
	t.Helper()
	core, coreID := graph.KCore(g, minCore)
	relab, relID := graph.DegeneracyOrderedCopy(core)
	cd := graph.Cores(core)
	if p.N() != relab.N() {
		t.Fatalf("%s minCore %d: Prepared has %d vertices, legacy %d", name, minCore, p.N(), relab.N())
	}
	if graph.DigestOf(p.G()) != graph.DigestOf(relab) {
		t.Fatalf("%s minCore %d: working graph differs from the legacy relabel", name, minCore)
	}
	for v := 0; v < relab.N(); v++ {
		if want := coreID[relID[v]]; p.ToInputIDs()[v] != want {
			t.Fatalf("%s minCore %d: ToInputIDs()[%d]=%d, legacy %d", name, minCore, v, p.ToInputIDs()[v], want)
		}
		if want := int(cd.Coreness[relID[v]]); p.Coreness(v) != want {
			t.Fatalf("%s minCore %d: Coreness(%d)=%d, legacy %d", name, minCore, v, p.Coreness(v), want)
		}
		row := relab.Neighbors(v)
		split, _ := slices.BinarySearch(row, int32(v))
		if !slices.Equal(p.LaterNeighbors(v), row[split:]) || !slices.Equal(p.EarlierNeighbors(v), row[:split]) {
			t.Fatalf("%s minCore %d: vertex %d later/earlier split differs from the legacy row", name, minCore, v)
		}
	}
}

// TestPrepareMatchesReferenceSkewed compares the one-peel Prepare with
// the two-peel reference byte for byte on skewed graphs and on CTCP
// outputs, whose pruned vertices stay in the id space as isolated
// vertices: at minCore = q-k they fall out of the core, at minCore 0 they
// stay in it.
func TestPrepareMatchesReferenceSkewed(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu-4k", gen.ChungLu(4000, 12, 2.2, 31)},
		{"ba-3k", gen.BarabasiAlbert(3000, 6, 32)},
		{"planted-2k", gen.Planted(gen.PlantedConfig{N: 2000, BackgroundP: 0.002, Communities: 20, CommSize: 14, DropPerV: 1, Overlap: 2, Seed: 33})},
	}
	for _, tc := range graphs {
		d := graph.Degeneracy(tc.g)
		for _, minCore := range []int{0, 3, 6, 9, d, d + 1} {
			graph.CheckPrepareReference(t, tc.name, tc.g, minCore)
		}
		for _, kq := range []struct{ k, q int }{{1, 5}, {2, 8}, {3, 12}} {
			red := kplex.ReduceCTCP(tc.g, kq.k, kq.q)
			isolated := 0
			for v := 0; v < red.N(); v++ {
				if red.Degree(v) == 0 {
					isolated++
				}
			}
			if isolated == 0 {
				t.Fatalf("%s k=%d q=%d: CTCP left no isolated vertex", tc.name, kq.k, kq.q)
			}
			name := fmt.Sprintf("%s/ctcp k=%d q=%d", tc.name, kq.k, kq.q)
			graph.CheckPrepareReference(t, name, red, kq.q-kq.k)
			graph.CheckPrepareReference(t, name, red, 0)
		}
	}
}

// TestInducedSubgraphOfMatchesBuilder pins the directly written induced
// CSR to the Builder construction it replaced, for unsorted keep sets
// over an in-memory graph and a store reader.
func TestInducedSubgraphOfMatchesBuilder(t *testing.T) {
	g := gen.ChungLu(1500, 10, 2.3, 8)
	path := filepath.Join(t.TempDir(), "g"+store.StoreExt)
	if err := store.WriteGraphFile(path, g, 64); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenFileCache(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for stride := 1; stride <= 7; stride += 3 {
		var keep []int
		for v := g.N() - 1; v >= 0; v -= stride {
			keep = append(keep, v)
		}
		sorted := slices.Clone(keep)
		slices.Sort(sorted)
		newID := make(map[int]int, len(sorted))
		for i, v := range sorted {
			newID[v] = i
		}
		var b graph.Builder
		for i, v := range sorted {
			for _, u := range g.Neighbors(v) {
				if j, ok := newID[int(u)]; ok && j > i {
					b.AddEdge(i, j)
				}
			}
		}
		want, err := b.Build(len(sorted))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []graph.CSR{g, r} {
			sub, orig := graph.InducedSubgraphOf(src, keep)
			if graph.DigestOf(sub) != graph.DigestOf(want) {
				t.Fatalf("stride %d: induced subgraph differs from the Builder construction", stride)
			}
			for i, v := range sorted {
				if orig[i] != int32(v) {
					t.Fatalf("stride %d: origID[%d]=%d, want %d", stride, i, orig[i], v)
				}
			}
		}
	}
}
