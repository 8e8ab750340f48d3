// Package kplex (module "repro") is the public API of this reproduction of
// "Efficient Enumeration of Large Maximal k-Plexes" (EDBT 2025). It exposes
// the graph substrate, the paper's sequential and parallel branch-and-bound
// enumerator with all its pruning rules, the ListPlex- and FP-style
// baselines, and the synthetic dataset generators used in place of the
// paper's SNAP/LAW graphs.
//
// Quick start:
//
//	g, err := kplex.ReadGraphFile("graph.txt")
//	res, err := kplex.Enumerate(ctx, g, kplex.NewOptions(2, 12))
//	fmt.Println(res.Count)
//
// To collect the plexes themselves, set Options.OnPlex. See examples/ for
// runnable programs.
package kplex

import (
	"context"
	"io"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kplex"
)

// Re-exported core types. The aliases keep one import path for users while
// the implementation stays in internal packages.
type (
	// Graph is an immutable undirected simple graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Stats summarises a graph (n, m, Δ, D) as in the paper's Table 2.
	GraphStats = graph.Stats
	// Options configures an enumeration run.
	Options = kplex.Options
	// Result is the outcome of an enumeration run.
	Result = kplex.Result
	// SearchStats holds the search counters of a run.
	SearchStats = kplex.Stats
	// UpperBoundStyle selects the include-branch bound.
	UpperBoundStyle = kplex.UpperBoundStyle
	// BranchingStyle selects Ours vs Ours_P branching.
	BranchingStyle = kplex.BranchingStyle
	// PartitionStyle selects the task decomposition.
	PartitionStyle = kplex.PartitionStyle
	// SchedulerStyle names a parallel work-distribution scheme.
	//
	// Deprecated: both values run the same barrier-free seed claim.
	SchedulerStyle = kplex.SchedulerStyle
	// PlantedConfig parameterises the planted-community generator.
	PlantedConfig = gen.PlantedConfig
	// SBMConfig parameterises the stochastic block model generator.
	SBMConfig = gen.SBMConfig
	// ExtendedGraphStats bundles the Table-2 columns with clustering,
	// assortativity, component and diameter measures.
	ExtendedGraphStats = graph.ExtendedStats
	// GraphFormat identifies an on-disk graph format.
	GraphFormat = graph.Format
	// SeedSet is a bitmask over seed-group ids, used with Options.SkipSeeds
	// to resume a checkpointed enumeration.
	SeedSet = kplex.SeedSet
	// Prepared is the reusable run prologue: the reduced, degeneracy-
	// relabelled working graph for one (graph, K, Q, UseCTCP) cell. See
	// Prepare.
	Prepared = kplex.Prepared
	// BatchQuery is one member of a batched multi-query run: an options
	// cell plus its reporting mode. See EnumerateBatchQueries.
	BatchQuery = kplex.BatchQuery
	// BatchResult is one batch member's answer.
	BatchResult = kplex.BatchResult
	// BatchMode selects what a batch member reports (count / top-k /
	// histogram).
	BatchMode = kplex.BatchMode
)

// Re-exported enumeration constants.
const (
	UBNone             = kplex.UBNone
	UBOurs             = kplex.UBOurs
	UBSortFP           = kplex.UBSortFP
	UBColor            = kplex.UBColor
	BranchRepick       = kplex.BranchRepick
	BranchFaPlexen     = kplex.BranchFaPlexen
	PartitionSubtasks  = kplex.PartitionSubtasks
	PartitionWhole2Hop = kplex.PartitionWhole2Hop
	SchedulerStages    = kplex.SchedulerStages
	SchedulerSteal     = kplex.SchedulerSteal
	BatchCount         = kplex.BatchCount
	BatchTopK          = kplex.BatchTopK
	BatchHistogram     = kplex.BatchHistogram
)

// Re-exported graph file formats (see ReadGraphFormatFile).
const (
	FormatEdgeList     = graph.FormatEdgeList
	FormatDIMACS       = graph.FormatDIMACS
	FormatMETIS        = graph.FormatMETIS
	FormatMatrixMarket = graph.FormatMatrixMarket
	FormatBinary       = graph.FormatBinary
	FormatAuto         = graph.FormatUnknown
)

// NewOptions returns the paper's default configuration ("Ours").
func NewOptions(k, q int) Options { return kplex.NewOptions(k, q) }

// BasicOptions returns the "Basic" ablation variant (no R1/R2 rules).
func BasicOptions(k, q int) Options { return kplex.BasicOptions(k, q) }

// OursPOptions returns the Ours_P variant (FaPlexen branching, Eq 4-6).
func OursPOptions(k, q int) Options {
	o := kplex.NewOptions(k, q)
	o.Branching = kplex.BranchFaPlexen
	return o
}

// ListPlexOptions configures the engine as the ListPlex baseline.
func ListPlexOptions(k, q int) Options { return baseline.ListPlexOptions(k, q) }

// FPOptions configures the engine as the FP baseline.
func FPOptions(k, q int) Options { return baseline.FPOptions(k, q) }

// Enumerate lists all maximal k-plexes of g with at least opts.Q vertices.
// It returns the count and search statistics; set opts.OnPlex to receive
// the vertex sets themselves. The context cancels the run early.
func Enumerate(ctx context.Context, g *Graph, opts Options) (Result, error) {
	return kplex.Run(ctx, g, opts)
}

// Prepare computes the reusable prologue of an enumeration run — the
// optional CTCP reduction, the (q-k)-core restriction and the degeneracy
// relabelling — for the (K, Q, UseCTCP) cell of opts. The handle is
// immutable and safe for concurrent reuse; callers issuing many queries
// over one graph should Prepare once and call EnumeratePrepared, which
// skips the O(n+m) prologue entirely.
func Prepare(g *Graph, opts Options) (*Prepared, error) { return kplex.Prepare(g, opts) }

// EnumeratePrepared is Enumerate against a Prepared handle. opts must
// match the handle's K, Q and UseCTCP; execution knobs (threads,
// scheduler, hooks, skip sets) are free to vary per run.
func EnumeratePrepared(ctx context.Context, p *Prepared, opts Options) (Result, error) {
	return kplex.RunPrepared(ctx, p, opts)
}

// EnumerateBatch evaluates a set of queries against one graph, sharing a
// single seed-space traversal among every compatible group of cells: two
// queries with equal K (and UseCTCP) are answered by one walk prepared at
// the loosest (smallest) Q of the group, with each discovered plex fanned
// out to the members whose threshold it meets. A parameter sweep over q
// therefore pays one prologue and one traversal instead of one per cell —
// see the README's "Batched sweeps" section for when this beats the
// prepared-graph cache alone.
//
// Each element of opts is one count-style query; its OnPlex hook (if any)
// receives exactly that member's result set. Per-query knobs that assume
// ownership of the traversal (FirstOnly, SkipSeeds, OnSeedDone,
// OnPlexSeed) are rejected — see Options.ValidateBatchMember. The i-th
// Result is identical to Enumerate(ctx, g, opts[i]) up to the shared
// search counters (Count, MaxPlexSize and delivered plexes match exactly;
// Stats otherwise describe the shared walk). For top-k or histogram
// members, use EnumerateBatchQueries.
func EnumerateBatch(ctx context.Context, g *Graph, opts []Options) ([]Result, error) {
	queries := make([]BatchQuery, len(opts))
	for i, o := range opts {
		queries[i] = BatchQuery{Opts: o, Mode: kplex.BatchCount}
	}
	batch, err := kplex.RunBatch(ctx, g, queries)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(batch))
	for i, b := range batch {
		out[i] = Result{Count: b.Count, Stats: b.Stats, Elapsed: b.Elapsed}
	}
	return out, nil
}

// EnumerateBatchQueries is the mode-aware batch entry point: members may
// mix count, top-k and histogram reporting (see BatchQuery). Results are
// positionally aligned with queries; members answered by one shared
// traversal report the same BatchResult.Group.
func EnumerateBatchQueries(ctx context.Context, g *Graph, queries []BatchQuery) ([]BatchResult, error) {
	return kplex.RunBatch(ctx, g, queries)
}

// EnumerateAll is a convenience wrapper that collects every maximal k-plex
// into memory. Use only when the result set is known to be small; the
// result sets on the paper's workloads can reach billions of plexes.
func EnumerateAll(ctx context.Context, g *Graph, opts Options) ([][]int, Result, error) {
	var out [][]int
	opts.OnPlex = func(p []int) {
		out = append(out, append([]int(nil), p...))
	}
	opts.Threads = 1 // deterministic order, no locking needed
	res, err := kplex.Run(ctx, g, opts)
	return out, res, err
}

// DefaultStreamBuffer is the EnumerateStream channel capacity used when
// Options.StreamBuffer is zero.
const DefaultStreamBuffer = kplex.DefaultStreamBuffer

// EnumerateStream enumerates like Enumerate but delivers each maximal
// k-plex over a bounded channel as it is found, instead of materialising
// the result set or requiring an OnPlex callback. The channel yields each
// plex as a sorted slice of input-graph vertex ids (the receiver owns the
// slice) and is closed when the run completes or is cancelled; the
// returned *Result is populated before the close, so it may be read once
// the channel is closed (Count, Stats, Elapsed). A synchronous error is
// returned only for invalid options.
//
// Cancellation is two-way: cancelling ctx stops the enumeration engine and
// unblocks any worker parked on a full channel, so abandoning a stream
// (e.g. an HTTP client disconnecting) never leaks goroutines, while a slow
// consumer back-pressures the engine through Options.StreamBuffer rather
// than growing memory. After the channel closes, ctx.Err() distinguishes a
// complete enumeration from a cancelled one. opts.OnPlex must be nil.
func EnumerateStream(ctx context.Context, g *Graph, opts Options) (<-chan []int, *Result, error) {
	h, err := kplex.RunStream(ctx, g, opts)
	if err != nil {
		return nil, nil, err
	}
	return h.C(), h.Result(), nil
}

// FindMaximumKPlex returns a maximum-cardinality k-plex of g among those
// with at least 2k-1 vertices (nil if none exists), via binary search over
// the size threshold with first-hit enumeration queries.
func FindMaximumKPlex(ctx context.Context, g *Graph, k int) ([]int, error) {
	return kplex.FindMaximumKPlex(ctx, g, k)
}

// GreedyKPlex returns a heuristic k-plex built greedily along the reverse
// degeneracy ordering: a quick lower bound on the maximum k-plex size.
func GreedyKPlex(g *Graph, k int) []int { return kplex.GreedyKPlex(g, k) }

// EnumerateTopK returns the topN largest maximal k-plexes with at least
// opts.Q vertices, sorted by decreasing size, using bounded memory
// regardless of the total result count.
func EnumerateTopK(ctx context.Context, g *Graph, opts Options, topN int) ([][]int, Result, error) {
	return kplex.EnumerateTopK(ctx, g, opts, topN)
}

// SizeHistogram enumerates and returns the size distribution of the
// maximal k-plexes: hist[s] counts those with exactly s vertices.
func SizeHistogram(ctx context.Context, g *Graph, opts Options) (map[int]int64, Result, error) {
	return kplex.SizeHistogram(ctx, g, opts)
}

// NewSeedSet returns a SeedSet holding the given seed-group ids.
func NewSeedSet(seeds ...int) *SeedSet { return kplex.NewSeedSet(seeds...) }

// SeedSpace returns the number of seed subproblems an enumeration of g
// under opts decomposes into. Seed ids reported by Options.OnSeedDone and
// accepted by Options.SkipSeeds lie in [0, SeedSpace); the value depends
// only on the graph content and the result-defining options, which is what
// makes seed-level checkpoints replayable across restarts.
func SeedSpace(g *Graph, opts Options) (int, error) { return kplex.SeedSpace(g, opts) }

// IsKPlex reports whether P is a k-plex of g.
func IsKPlex(g *Graph, P []int, k int) bool { return kplex.IsKPlex(g, P, k) }

// IsMaximalKPlex reports whether P is a maximal k-plex of g.
func IsMaximalKPlex(g *Graph, P []int, k int) bool { return kplex.IsMaximalKPlex(g, P, k) }

// ReadGraph parses a SNAP-style edge list ("u v" per line, '#' comments).
func ReadGraph(r io.Reader) (*Graph, error) {
	rr, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return rr.Graph, nil
}

// ReadGraphFile parses the edge list stored at path.
func ReadGraphFile(path string) (*Graph, error) {
	rr, err := graph.ReadEdgeListFile(path)
	if err != nil {
		return nil, err
	}
	return rr.Graph, nil
}

// WriteGraph writes g as an edge list readable by ReadGraph.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadGraphBinary parses the compact binary format written by
// WriteGraphBinary (varint-delta CSR; ~1-2 bytes per edge on real graphs).
func ReadGraphBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteGraphBinary writes g in the compact binary format.
func WriteGraphBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// ReadGraphAnyFile loads a graph from path, auto-detecting binary vs text.
func ReadGraphAnyFile(path string) (*Graph, error) {
	rr, err := graph.ReadAnyFile(path)
	if err != nil {
		return nil, err
	}
	return rr.Graph, nil
}

// ComputeGraphStats returns the Table-2 statistics (n, m, Δ, D) for g.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// ComputeExtendedGraphStats additionally computes triangles, clustering,
// assortativity, components and an approximate diameter (O(m^{3/2})).
func ComputeExtendedGraphStats(g *Graph) ExtendedGraphStats {
	return graph.ComputeExtendedStats(g)
}

// ReadGraphFormatFile loads a graph from path in the named format;
// FormatAuto detects from the file's first bytes.
func ReadGraphFormatFile(path string, f GraphFormat) (*Graph, error) {
	return graph.ReadFormatFile(path, f)
}

// WriteGraphFormatFile writes g to path in the named format.
func WriteGraphFormatFile(path string, g *Graph, f GraphFormat) error {
	return graph.WriteFormatFile(path, g, f)
}

// Generators, re-exported for the examples and the benchmark suite.

// GNP returns an Erdős–Rényi graph G(n, p).
func GNP(n int, p float64, seed int64) *Graph { return gen.GNP(n, p, seed) }

// BarabasiAlbert returns a preferential-attachment graph.
func BarabasiAlbert(n, m int, seed int64) *Graph { return gen.BarabasiAlbert(n, m, seed) }

// ChungLu returns a power-law random graph with the given average degree
// and exponent gamma.
func ChungLu(n int, avgDeg, gamma float64, seed int64) *Graph {
	return gen.ChungLu(n, avgDeg, gamma, seed)
}

// Planted returns a graph with dense planted communities (each community is
// a k-plex by construction) over a sparse background.
func Planted(cfg PlantedConfig) *Graph { return gen.Planted(cfg) }

// SBM returns a stochastic block model graph.
func SBM(cfg SBMConfig) *Graph { return gen.SBM(cfg) }

// WattsStrogatz returns a small-world graph (ring lattice with rewiring).
func WattsStrogatz(n, k int, beta float64, seed int64) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// RandomRegular returns a d-regular graph via the pairing model.
func RandomRegular(n, d int, seed int64) *Graph { return gen.RandomRegular(n, d, seed) }

// NaiveEnumerate is the Bron-Kerbosch oracle (paper's Algorithm 1) without
// any pruning; exponential, for tests and tiny graphs only.
func NaiveEnumerate(g *Graph, k, q int) [][]int { return baseline.NaiveEnumerate(g, k, q) }

// ReverseSearchEnumerate lists maximal k-plexes by reverse search (the
// Berlowitz et al. framework reviewed in the paper's Section 2). Practical
// on small graphs only; maxSolutions caps the traversal (0 = unlimited).
func ReverseSearchEnumerate(g *Graph, k, q, maxSolutions int) ([][]int, error) {
	return baseline.ReverseSearchEnumerate(g, k, q, maxSolutions)
}

// ReduceCTCP applies the kPlexS-style core-truss co-pruning reduction: the
// returned graph (same vertex id space) contains every k-plex with at
// least q vertices of g. Enumerating either graph yields identical results.
func ReduceCTCP(g *Graph, k, q int) *Graph {
	// The internal reduction accepts any CSR source; with a *Graph input
	// it returns either the input itself (no rule fired) or a rebuilt
	// in-memory graph, so the assertion below always holds.
	return graph.Materialize(kplex.ReduceCTCP(g, k, q))
}

// D2KEnumerate lists maximal k-plexes with the standalone D2K-style
// baseline (diameter-2 block decomposition + Bron-Kerbosch, slice sets).
// Independent of the main engine; an oracle for cross-checking.
func D2KEnumerate(g *Graph, k, q int) [][]int { return baseline.D2KEnumerate(g, k, q) }

// FaPlexenEnumerate lists maximal k-plexes with the standalone
// FaPlexen-style baseline (global Eq (4)-(6) branching). Also an
// independent oracle; unlike the others it does not require q >= 2k-1.
func FaPlexenEnumerate(g *Graph, k, q int) [][]int {
	return baseline.FaPlexenEnumerate(g, k, q)
}
