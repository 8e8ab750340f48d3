package graph

// Binary graph serialization. Edge-list text is the interchange format,
// but at the paper's graph sizes (10⁸-10⁹ edges) text parsing dominates
// load time, so the tools also speak a compact binary format: a small
// header followed by each vertex's forward adjacency (neighbours greater
// than the vertex) as varint-encoded deltas. Typical web/social graphs
// compress to ~1-2 bytes per edge.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// binaryMagic identifies the format; the trailing byte is the version.
var binaryMagic = [8]byte{'K', 'P', 'L', 'X', 'G', 'R', 'F', 1}

// WriteBinary serialises g to w in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64 * 2]byte
	n := binary.PutUvarint(hdr[:], uint64(g.N()))
	n += binary.PutUvarint(hdr[n:], uint64(g.M()))
	if _, err := bw.Write(hdr[:n]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	for v := 0; v < g.N(); v++ {
		// Forward neighbours only; each undirected edge is stored once.
		nb := g.Neighbors(v)
		start := 0
		for start < len(nb) && nb[start] <= int32(v) {
			start++
		}
		fwd := nb[start:]
		n := binary.PutUvarint(buf[:], uint64(len(fwd)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev := int32(v)
		for _, u := range fwd {
			n := binary.PutUvarint(buf[:], uint64(u-prev))
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			prev = u
		}
	}
	return bw.Flush()
}

// ReadBinary parses a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: not a kplex binary graph (magic %q)", magic[:])
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: vertex count: %w", err)
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: edge count: %w", err)
	}
	const maxReasonable = 1 << 40
	if n64 > maxReasonable || m64 > maxReasonable {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)

	// Pre-allocation is capped: the header's edge count is untrusted, and a
	// crafted m near the plausibility bound would demand terabytes here. The
	// builder grows on demand, so honest large graphs still load.
	var b Builder
	b.Grow(min(m, maxPreallocEdges))
	total := 0
	for v := 0; v < n; v++ {
		cnt, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d adjacency length: %w", v, err)
		}
		// Compare in uint64: a huge cnt must not wrap the int accumulator.
		if cnt > uint64(m-total) {
			return nil, fmt.Errorf("graph: adjacency overruns declared edge count %d", m)
		}
		total += int(cnt)
		prev := uint64(v)
		for i := uint64(0); i < cnt; i++ {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d edge %d: %w", v, i, err)
			}
			// Compare before adding: a huge delta must not wrap prev back
			// into range. prev < n holds here, so n-prev cannot underflow.
			if delta >= uint64(n)-prev {
				return nil, fmt.Errorf("graph: vertex %d has neighbour %d out of range", v, prev+delta)
			}
			prev += delta
			b.AddEdge(v, int(prev))
		}
	}
	if total != m {
		return nil, fmt.Errorf("graph: read %d edges, header declared %d", total, m)
	}
	g, err := b.Build(n)
	if err != nil {
		return nil, err
	}
	if g.M() != m {
		return nil, fmt.Errorf("graph: %d edges after normalization, header declared %d (duplicate edges in file?)", g.M(), m)
	}
	return g, nil
}

// WriteBinaryFile writes g to path in binary format.
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAnyFile loads a graph from path, auto-detecting the binary format by
// its magic bytes and falling back to edge-list text. For text inputs the
// original vertex labels are returned; binary graphs are already compact.
func ReadAnyFile(path string) (*ReadResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n == len(magic) && magic == binaryMagic {
		g, err := ReadBinary(f)
		if err != nil {
			return nil, err
		}
		ids := make([]int64, g.N())
		for i := range ids {
			ids[i] = int64(i)
		}
		return &ReadResult{Graph: g, OrigID: ids}, nil
	}
	return ReadEdgeList(f)
}
