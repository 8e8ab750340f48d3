package kplex

import "repro/internal/graph"

// The k-plex predicates moved to internal/graph (they are pure graph
// properties, and internal/sink needs them without depending on the
// engine). These wrappers keep the package's API for the callers that
// verify enumeration output from here.

// IsKPlex reports whether the vertex set P is a k-plex of g: every member
// has at least |P|-k neighbours inside P. The empty set and singletons are
// k-plexes for every k >= 1.
func IsKPlex(g *graph.Graph, P []int, k int) bool { return graph.IsKPlex(g, P, k) }

// IsMaximalKPlex reports whether P is a k-plex that no vertex of g extends.
func IsMaximalKPlex(g *graph.Graph, P []int, k int) bool { return graph.IsMaximalKPlex(g, P, k) }
