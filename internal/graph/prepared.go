package graph

import "slices"

// Prepared is an enumeration-ready view of a graph: the minCore-core
// restricted to non-isolated shells, relabelled so vertex i is the i-th
// vertex of the degeneracy ordering η, with guaranteed-sorted CSR
// adjacency, per-vertex later-neighbour offsets, and per-vertex coreness.
// It is immutable after Prepare, so one handle can serve any number of
// concurrent enumeration runs — the serving layer caches handles keyed by
// the source graph's memoized digest so repeat queries skip this O(n+m)
// prologue entirely.
type Prepared struct {
	g        *Graph  // relabelled working graph
	toInput  []int32 // relabelled id -> source graph id
	laterOff []int32 // index within Neighbors(v) of the first neighbour > v
	coreness []int32 // core numbers in the relabelled space
}

// Prepare builds the enumeration view of g: restrict to the minCore-core
// (Theorem 3.5 with minCore = q-k), relabel by degeneracy order, and
// precompute the later-neighbour offsets the seed decomposition consumes.
func Prepare(g CSR, minCore int) *Prepared {
	core, coreID := KCore(g, minCore)
	cd := Cores(core)
	n := core.N()

	// Relabel along η, as DegeneracyOrderedCopy does, but keep the core
	// decomposition so coreness comes out of the same peel. Each row is
	// written in place and sorted; the entries below the row's own id are
	// counted on the way, which is its later-neighbour offset.
	p := &Prepared{
		toInput:  make([]int32, n),
		laterOff: make([]int32, n),
		coreness: make([]int32, n),
	}
	offsets := make([]int32, n+1)
	for newU := 0; newU < n; newU++ {
		offsets[newU+1] = offsets[newU] + int32(core.Degree(int(cd.Order[newU])))
	}
	adj := make([]int32, offsets[n])
	for newU := 0; newU < n; newU++ {
		old := cd.Order[newU]
		row := adj[offsets[newU]:offsets[newU+1]]
		earlier := int32(0)
		for i, oldV := range core.Neighbors(int(old)) {
			newV := cd.Pos[oldV]
			row[i] = newV
			if newV < int32(newU) {
				earlier++
			}
		}
		slices.Sort(row)
		p.toInput[newU] = coreID[old]
		p.coreness[newU] = cd.Coreness[old]
		p.laterOff[newU] = earlier
	}
	p.g = &Graph{offsets: offsets, adj: adj}
	return p
}

// G returns the relabelled working graph. Its vertex ids are the seed id
// space of an enumeration run; callers must not mutate it.
func (p *Prepared) G() *Graph { return p.g }

// N returns the number of vertices of the working graph.
func (p *Prepared) N() int { return p.g.N() }

// ToInputIDs returns the full relabelled-to-source id mapping. Callers must
// not mutate it.
func (p *Prepared) ToInputIDs() []int32 { return p.toInput }

// LaterNeighbors returns the neighbours of v that come after v in the
// degeneracy ordering — the suffix of the sorted adjacency row, located by
// the precomputed offset instead of a scan.
func (p *Prepared) LaterNeighbors(v int) []int32 {
	return p.g.Neighbors(v)[p.laterOff[v]:]
}

// EarlierNeighbors returns the neighbours of v that come before it in the
// degeneracy ordering.
func (p *Prepared) EarlierNeighbors(v int) []int32 {
	return p.g.Neighbors(v)[:p.laterOff[v]]
}
