// Package store implements the on-disk graph store: a compact, versioned
// binary CSR format that opens in O(1) via mmap and pages adjacency in on
// demand, a bounded-memory streaming converter from edge-list text, and a
// persistent catalog directory that keeps graph digests, stats and warm
// enumeration prologues across restarts.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// File format (version 1), little-endian throughout.
//
// A .kpg file is three regions: a fixed-width header page, a page-aligned
// block index, and the adjacency blocks.
//
//	offset   size      field
//	──────   ────      ─────
//	0        8         magic "KPLXSTR1"
//	8        4         version (uint32) = 1
//	12       4         flags (uint32); bit 0: content digest present
//	16       8         n — vertex count (uint64)
//	24       8         m — undirected edge count (uint64)
//	32       8         blockVerts — vertices per adjacency block (uint64)
//	40       8         numBlocks = ceil(n / blockVerts) (uint64)
//	48       8         indexOff — file offset of the block index (uint64,
//	                   page-aligned)
//	56       8         dataOff — file offset of block 0 (uint64,
//	                   page-aligned)
//	64       8         dataLen — total encoded block bytes (uint64)
//	72       8         maxDeg — maximum vertex degree (uint64)
//	80       32        SHA-256 content digest (see below)
//	112      4         CRC-32C (Castagnoli) of header bytes [0,112)
//	116      ...4096   zero padding to one page
//
// Block index (at indexOff): numBlocks+1 uint64 file offsets. Entry b is
// the offset of block b's encoded bytes; the final entry equals
// dataOff+dataLen, so block b's encoded length is index[b+1]-index[b].
// The index is page-aligned and fixed-width, so locating any vertex's
// block is O(1) arithmetic on the mapping — no scan, no decode.
//
// Adjacency blocks (at dataOff): block b covers vertices
// [b*blockVerts, min(n, (b+1)*blockVerts)). For each vertex in order the
// block stores
//
//	uvarint  deg(v)
//	uvarint  neighbour deltas: with prev starting at 0, each entry is
//	         u-prev followed by prev=u — rows are sorted ascending, so
//	         every delta after the first is >= 1
//
// This per-row encoding is byte-identical to the canonical form hashed by
// graph.Digest, which is why the header digest of a store file equals
// graph.Digest of the same graph loaded in memory: the writer hashes
// uvarint(n) followed by exactly the block bytes it emits. Every digest
// consumer in the system (result cache, prepared-handle cache, job and
// cluster handshakes) therefore agrees on graph identity across the
// in-memory and on-disk representations, and opening a store file never
// needs to rehash the adjacency.
//
// Rows store the full adjacency (both directions of every edge), so
// sum(deg) = 2m and Neighbors(v) decodes from v's block alone.

const (
	// Version is the current format version. Readers reject files with a
	// greater version outright: forward compatibility is not attempted.
	Version = 1

	pageSize   = 4096
	headerSize = 116 // bytes actually used; the header region is one page

	// DefaultBlockVerts is the default number of vertices per adjacency
	// block: small enough that decoding one block on a point access stays
	// cheap, large enough that a sequential prologue scan amortizes the
	// per-block bookkeeping.
	DefaultBlockVerts = 2048

	flagDigest = 1 << 0
)

var magic = [8]byte{'K', 'P', 'L', 'X', 'S', 'T', 'R', '1'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded fixed-width file header.
type Header struct {
	Version    uint32
	Flags      uint32
	N          uint64
	M          uint64
	BlockVerts uint64
	NumBlocks  uint64
	IndexOff   uint64
	DataOff    uint64
	DataLen    uint64
	MaxDeg     uint64
	Digest     [32]byte
}

// encode serialises h into a header page, including the trailing CRC.
func (h *Header) encode() []byte {
	buf := make([]byte, pageSize)
	copy(buf[0:8], magic[:])
	le := binary.LittleEndian
	le.PutUint32(buf[8:], h.Version)
	le.PutUint32(buf[12:], h.Flags)
	le.PutUint64(buf[16:], h.N)
	le.PutUint64(buf[24:], h.M)
	le.PutUint64(buf[32:], h.BlockVerts)
	le.PutUint64(buf[40:], h.NumBlocks)
	le.PutUint64(buf[48:], h.IndexOff)
	le.PutUint64(buf[56:], h.DataOff)
	le.PutUint64(buf[64:], h.DataLen)
	le.PutUint64(buf[72:], h.MaxDeg)
	copy(buf[80:112], h.Digest[:])
	le.PutUint32(buf[112:], crc32.Checksum(buf[:112], castagnoli))
	return buf
}

// decodeHeader parses and validates a header page. It checks magic,
// version, CRC and the internal consistency of every offset against the
// file size, so a truncated or bit-flipped file is rejected before any
// mmap access could fault.
func decodeHeader(data []byte, fileSize uint64) (Header, error) {
	var h Header
	if len(data) < headerSize {
		return h, fmt.Errorf("store: file too small for a header (%d bytes)", len(data))
	}
	if [8]byte(data[0:8]) != magic {
		return h, fmt.Errorf("store: not a kplex store file (magic %q)", data[0:8])
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(data[112:]), crc32.Checksum(data[:112], castagnoli); got != want {
		return h, fmt.Errorf("store: header CRC mismatch (file %08x, computed %08x)", got, want)
	}
	h.Version = le.Uint32(data[8:])
	if h.Version > Version {
		return h, fmt.Errorf("store: file version %d is newer than this build supports (%d)", h.Version, Version)
	}
	if h.Version == 0 {
		return h, fmt.Errorf("store: invalid file version 0")
	}
	h.Flags = le.Uint32(data[12:])
	h.N = le.Uint64(data[16:])
	h.M = le.Uint64(data[24:])
	h.BlockVerts = le.Uint64(data[32:])
	h.NumBlocks = le.Uint64(data[40:])
	h.IndexOff = le.Uint64(data[48:])
	h.DataOff = le.Uint64(data[56:])
	h.DataLen = le.Uint64(data[64:])
	h.MaxDeg = le.Uint64(data[72:])
	copy(h.Digest[:], data[80:112])

	if h.N > 1<<31 {
		return h, fmt.Errorf("store: vertex count %d exceeds the int32 id space", h.N)
	}
	if h.BlockVerts == 0 {
		return h, fmt.Errorf("store: zero blockVerts")
	}
	if want := (h.N + h.BlockVerts - 1) / h.BlockVerts; h.NumBlocks != want {
		return h, fmt.Errorf("store: numBlocks %d inconsistent with n=%d blockVerts=%d (want %d)", h.NumBlocks, h.N, h.BlockVerts, want)
	}
	indexLen := 8 * (h.NumBlocks + 1)
	if h.IndexOff < pageSize || h.IndexOff%pageSize != 0 || h.IndexOff+indexLen > fileSize {
		return h, fmt.Errorf("store: block index [%d,%d) outside file of %d bytes", h.IndexOff, h.IndexOff+indexLen, fileSize)
	}
	if h.DataOff%pageSize != 0 || h.DataOff < h.IndexOff+indexLen {
		return h, fmt.Errorf("store: data region at %d overlaps the index", h.DataOff)
	}
	// An empty graph (n=0) has zero data bytes and the file legitimately
	// ends at the index; only a non-empty data region must lie inside it.
	if h.DataLen > 0 && h.DataOff+h.DataLen > fileSize {
		return h, fmt.Errorf("store: data region [%d,%d) outside file of %d bytes", h.DataOff, h.DataOff+h.DataLen, fileSize)
	}
	return h, nil
}

// decodedBlock is one adjacency block expanded to plain CSR slices. base
// is the first vertex the block covers; row i holds vertex base+i.
type decodedBlock struct {
	base    int32
	offsets []int32 // len = vertex count + 1
	adj     []int32
}

func (b *decodedBlock) row(v int) []int32 {
	i := v - int(b.base)
	return b.adj[b.offsets[i]:b.offsets[i+1]]
}

// decodeBlock expands the encoded bytes of a block covering cnt vertices
// starting at base. n bounds neighbour ids. Every structural invariant is
// checked — row length against remaining bytes, neighbour range, strict
// ascending order, no self-loops — so a corrupt or truncated block turns
// into an error instead of an out-of-range panic deeper in the engine.
func decodeBlock(enc []byte, base, cnt, n int) (*decodedBlock, error) {
	blk := &decodedBlock{
		base:    int32(base),
		offsets: make([]int32, cnt+1),
	}
	// First pass sizes adj exactly; uvarint decode is cheap enough that
	// two passes beat growing a slice through appends.
	total := 0
	pos := 0
	for i := 0; i < cnt; i++ {
		deg, w := uvarintStrict(enc[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("store: block@%d: vertex %d: bad degree varint", base, base+i)
		}
		pos += w
		if deg > uint64(n) {
			return nil, fmt.Errorf("store: block@%d: vertex %d: degree %d exceeds n=%d", base, base+i, deg, n)
		}
		total += int(deg)
		for j := uint64(0); j < deg; j++ {
			_, w := uvarintStrict(enc[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("store: block@%d: vertex %d: truncated adjacency", base, base+i)
			}
			pos += w
		}
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("store: block@%d: %d trailing bytes after %d rows", base, len(enc)-pos, cnt)
	}
	blk.adj = make([]int32, total)
	pos = 0
	w0 := 0
	for i := 0; i < cnt; i++ {
		deg, w := binary.Uvarint(enc[pos:])
		pos += w
		blk.offsets[i] = int32(w0)
		prev := int64(-1)
		for j := uint64(0); j < deg; j++ {
			delta, w := binary.Uvarint(enc[pos:])
			pos += w
			var u int64
			if prev < 0 {
				u = int64(delta)
			} else {
				u = prev + int64(delta)
				if delta == 0 {
					return nil, fmt.Errorf("store: block@%d: vertex %d: duplicate neighbour %d", base, base+i, u)
				}
			}
			if u >= int64(n) {
				return nil, fmt.Errorf("store: block@%d: vertex %d: neighbour %d out of range (n=%d)", base, base+i, u, n)
			}
			if u == int64(base+i) {
				return nil, fmt.Errorf("store: block@%d: self-loop on vertex %d", base, u)
			}
			blk.adj[w0] = int32(u)
			w0++
			prev = u
		}
	}
	blk.offsets[cnt] = int32(w0)
	return blk, nil
}

// uvarintStrict is binary.Uvarint restricted to minimal encodings: an
// overlong varint (a value padded with continuation bytes, e.g. 0x80 0x00
// for zero) is rejected with w = 0. The block encoding must be canonical
// — exactly one byte string per block content — or the "hash the bytes
// you wrote" digest scheme would let two files with identical content
// carry different digests.
func uvarintStrict(enc []byte) (uint64, int) {
	v, w := binary.Uvarint(enc)
	if w > 1 && enc[w-1] == 0 {
		return 0, 0 // overlong: a minimal multi-byte varint never ends in 0x00
	}
	return v, w
}

// appendRow appends one vertex row (degree + deltas) to dst in the
// canonical encoding shared with graph.Digest. The row must be sorted
// ascending; prev starts at 0 exactly as computeDigest does.
func appendRow(dst []byte, row []int32) []byte {
	var buf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(buf[:], uint64(len(row)))
	dst = append(dst, buf[:w]...)
	prev := int32(0)
	for _, u := range row {
		w := binary.PutUvarint(buf[:], uint64(u-prev))
		dst = append(dst, buf[:w]...)
		prev = u
	}
	return dst
}
