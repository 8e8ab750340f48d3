package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest returns a SHA-256 over the graph's canonical CSR form: n, then
// each vertex's sorted neighbour list delta-encoded as uvarints. Build
// sorts and deduplicates every adjacency row, so two graphs with the same
// vertex count and edge set digest identically no matter how (or in what
// order) their edges were added. The serving layer keys result caches on
// this digest, which is what lets the same graph registered under two
// names — or reloaded from disk — share cached enumeration results.
//
// The digest is computed once per Graph and memoized (the CSR is immutable
// after Build), so repeat cache lookups never rehash the adjacency.
func Digest(g *Graph) [32]byte {
	g.digestOnce.Do(func() { g.digest = computeDigest(g) })
	return g.digest
}

func computeDigest(g CSR) [32]byte {
	h := sha256.New()
	var buf [2 * binary.MaxVarintLen64]byte
	n := g.N()
	w := binary.PutUvarint(buf[:], uint64(n))
	h.Write(buf[:w])
	for v := 0; v < n; v++ {
		row := g.Neighbors(v)
		w = binary.PutUvarint(buf[:], uint64(len(row)))
		prev := int32(0)
		for _, u := range row {
			w += binary.PutUvarint(buf[w:], uint64(u-prev))
			prev = u
			if w >= binary.MaxVarintLen64 {
				h.Write(buf[:w])
				w = 0
			}
		}
		h.Write(buf[:w])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// DigestOf returns the content digest of any CSR source. An in-memory
// *Graph memoizes the hash; a source that carries a precomputed digest
// (StoredDigester — the on-disk store keeps one in its header) answers
// without touching the adjacency at all; anything else is hashed by
// streaming its rows through the same canonical encoding, so every path
// yields the same identity for the same graph content.
func DigestOf(g CSR) [32]byte {
	switch t := g.(type) {
	case *Graph:
		return Digest(t)
	case StoredDigester:
		return t.StoredDigest()
	}
	return computeDigest(g)
}

// DigestHexOf returns DigestOf as a lowercase hex string.
func DigestHexOf(g CSR) string {
	d := DigestOf(g)
	return hex.EncodeToString(d[:])
}
