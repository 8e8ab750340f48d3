package graph

// Edge-list I/O. The reader accepts the SNAP-style format used by the
// paper's datasets: one "u v" pair per line, whitespace separated, with
// '#' or '%' comment lines. Vertex ids need not be contiguous; they are
// compacted to 0..n-1 and the mapping is returned so results can be reported
// in the input's id space.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// ReadResult is a parsed edge-list graph plus the id mapping back to the
// input file's vertex labels.
type ReadResult struct {
	Graph  *Graph
	OrigID []int64 // OrigID[v] = label of vertex v in the input
}

// ReadEdgeList parses a whitespace-separated edge list from r.
func ReadEdgeList(r io.Reader) (*ReadResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type rawEdge struct{ u, v int64 }
	var raw []rawEdge
	labels := make(map[int64]struct{})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		// Trim leading spaces, skip blanks and comments.
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i == len(line) || line[i] == '#' || line[i] == '%' {
			continue
		}
		u, next, err := parseInt(line, i)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		v, next, err := parseInt(line, next)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		// Anything after the second field (weights, timestamps) is ignored.
		_ = next
		raw = append(raw, rawEdge{u, v})
		labels[u] = struct{}{}
		labels[v] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	orig := make([]int64, 0, len(labels))
	for l := range labels {
		orig = append(orig, l)
	}
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	id := make(map[int64]int, len(orig))
	for i, l := range orig {
		id[l] = i
	}
	var b Builder
	b.Grow(len(raw))
	for _, e := range raw {
		b.AddEdge(id[e.u], id[e.v])
	}
	g, err := b.Build(len(orig))
	if err != nil {
		return nil, err
	}
	return &ReadResult{Graph: g, OrigID: orig}, nil
}

// parseInt reads one non-negative integer field starting at or after
// offset i, returning the value and the offset just past the field.
func parseInt(line []byte, i int) (int64, int, error) {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	start := i
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		i++
	}
	if i == start {
		return 0, i, fmt.Errorf("expected integer at column %d", start+1)
	}
	v, err := strconv.ParseInt(string(line[start:i]), 10, 64)
	if err != nil {
		return 0, i, err
	}
	return v, i, nil
}

// ReadEdgeListFile parses the edge list stored at path.
func ReadEdgeListFile(path string) (*ReadResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes g as "u v" lines (u < v), suitable for re-reading
// with ReadEdgeList.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if int32(v) < u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
