package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Reader is an mmap-backed graph implementing graph.CSR over a store
// file. Opening is O(1): only the header is read and validated. A run's
// prologue calls Decode, which expands every block once, straight into
// flat in-memory CSR arrays. Point accesses (Degree, Neighbors) decode
// single blocks lazily on first touch and keep them in a small
// CLOCK-evicted cache, so repeat reads of a region don't re-varint-decode.
//
// A Reader is safe for concurrent use. Neighbors returns slices into
// decoded blocks; an evicted block stays valid for any caller still
// holding its slices (eviction only drops the cache's reference), exactly
// matching *graph.Graph's aliasing contract.
//
// Close unmaps the file. The serving layer's registry refcounts entries
// and only closes a Reader once no query holds it; Close-then-access is a
// programming error and panics with a clear message rather than faulting
// on an unmapped page.
type Reader struct {
	hdr    Header
	path   string
	data   []byte
	unmap  func() error
	closed atomic.Bool

	mu    sync.Mutex
	cache *clockCache
}

// DefaultCacheBlocks is the default decoded-block cache capacity of point
// accesses. At the default block geometry it keeps roughly half a million
// vertices' decoded adjacency resident. The prologue does not use the
// cache: it decodes the whole file once through Decode.
const DefaultCacheBlocks = 256

// OpenFile opens a store file with the default decoded-block cache.
func OpenFile(path string) (*Reader, error) {
	return OpenFileCache(path, DefaultCacheBlocks)
}

// OpenFileCache opens a store file keeping at most cacheBlocks decoded
// blocks resident.
func OpenFileCache(path string, cacheBlocks int) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f)
	if err != nil {
		return nil, fmt.Errorf("store: mapping %s: %w", path, err)
	}
	hdr, err := decodeHeader(data, uint64(st.Size()))
	if err != nil {
		unmap() //nolint:errcheck // the decode error is the one to report
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if cacheBlocks < 1 {
		cacheBlocks = 1
	}
	return &Reader{
		hdr:   hdr,
		path:  path,
		data:  data,
		unmap: unmap,
		cache: newClockCache(cacheBlocks),
	}, nil
}

// Close unmaps the file. The Reader must not be used afterwards.
func (r *Reader) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = nil
	r.data = nil
	return r.unmap()
}

// Header returns the decoded file header.
func (r *Reader) Header() Header { return r.hdr }

// N returns the vertex count.
func (r *Reader) N() int { return int(r.hdr.N) }

// M returns the undirected edge count.
func (r *Reader) M() int { return int(r.hdr.M) }

// MaxDegree returns Δ from the header in O(1).
func (r *Reader) MaxDegree() int { return int(r.hdr.MaxDeg) }

// StoredDigest returns the content digest recorded in the header. It
// equals graph.Digest of the same graph loaded in memory (the writer
// hashes the canonical encoding it emits), so graph.DigestOf never
// rehashes a store-backed graph.
func (r *Reader) StoredDigest() [32]byte { return r.hdr.Digest }

// DigestHex returns StoredDigest as lowercase hex.
func (r *Reader) DigestHex() string {
	d := r.hdr.Digest
	return hex.EncodeToString(d[:])
}

// Degree returns deg(v). Like Neighbors it decodes v's block on a cache
// miss, so a sequential scan decodes each block once and every later
// Degree/Neighbors in the block hits the cache.
func (r *Reader) Degree(v int) int {
	blk := r.block(v)
	i := v - int(blk.base)
	return int(blk.offsets[i+1] - blk.offsets[i])
}

// Neighbors returns the sorted adjacency row of v. The slice aliases the
// decoded block and must not be modified.
func (r *Reader) Neighbors(v int) []int32 {
	return r.block(v).row(v)
}

// blockOffset reads index entry b straight out of the mapping data — the
// index is fixed-width, so no part of it is parsed at open time.
func (r *Reader) blockOffset(data []byte, b int) uint64 {
	return binary.LittleEndian.Uint64(data[r.hdr.IndexOff+8*uint64(b):])
}

func (r *Reader) block(v int) *decodedBlock {
	if v < 0 || uint64(v) >= r.hdr.N {
		panic(fmt.Sprintf("store: vertex %d out of range [0,%d)", v, r.hdr.N))
	}
	b := v / int(r.hdr.BlockVerts)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkOpen()
	if blk := r.cache.get(b); blk != nil {
		return blk
	}
	enc, base, cnt, err := r.blockBytes(r.data, b)
	var blk *decodedBlock
	if err == nil {
		blk, err = decodeBlock(enc, base, cnt, int(r.hdr.N))
	}
	if err != nil {
		// The header was validated at open; a block that fails to decode
		// means on-disk corruption after open (or a torn write the CRC'd
		// header can't see). There is no error path through graph.CSR, so
		// corruption surfaces as a panic naming the file and block.
		panic(fmt.Sprintf("store: %s: %v", r.path, err))
	}
	r.cache.put(b, blk)
	return blk
}

// checkOpen panics on a closed Reader.
func (r *Reader) checkOpen() {
	if r.closed.Load() {
		panic("store: use of closed Reader (registry refcount bug?)")
	}
}

// mapping returns the file mapping, panicking on a closed Reader. A bulk
// scan reads the returned slice without holding r.mu; the caller's own
// reference (the registry's refcount) must keep the Reader open until the
// scan is done.
func (r *Reader) mapping() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkOpen()
	return r.data
}

// blockBytes returns block b's encoded bytes within the mapping data, its
// first vertex and its vertex count, after checking that its extent lies
// in the data region.
func (r *Reader) blockBytes(data []byte, b int) (enc []byte, base, cnt int, err error) {
	lo, hi := r.blockOffset(data, b), r.blockOffset(data, b+1)
	if lo > hi || hi > r.hdr.DataOff+r.hdr.DataLen || lo < r.hdr.DataOff {
		return nil, 0, 0, fmt.Errorf("block %d has invalid extent [%d,%d)", b, lo, hi)
	}
	base = b * int(r.hdr.BlockVerts)
	return data[lo:hi], base, min(int(r.hdr.N)-base, int(r.hdr.BlockVerts)), nil
}

// Decode expands the whole adjacency into one in-memory graph: every
// block is decoded once, by the same row decoder as a point access and
// with the same checks, straight into flat CSR arrays, and the rows must
// hold exactly the 2·M arcs the header declares. The block cache is
// neither read nor filled. kplex.Prepare calls it (through
// graph.Decoder) so the prologue reads flat arrays and a corrupt block
// comes back as an error rather than a panic. Safe for concurrent use;
// Decode after Close panics like every other access. Decode does not hold
// the Reader's lock while it scans, so the caller's reference (the
// registry's refcount) must keep the Reader open until Decode returns.
func (r *Reader) Decode() (*graph.Graph, error) {
	data := r.mapping()
	h := r.hdr
	// Each vertex takes at least one byte (its degree) and so does each arc.
	// M is bounded before it is doubled so that 2·M cannot wrap.
	if h.N > h.DataLen || h.M > h.DataLen/2 || h.M > math.MaxInt32/2 {
		return nil, fmt.Errorf("store: %s: header declares n=%d m=%d, more than %d data bytes encode", r.path, h.N, h.M, h.DataLen)
	}
	arcs := 2 * h.M
	n := int(h.N)
	offsets := make([]int32, n+1)
	adj := make([]int32, 0, arcs)
	for b := 0; b < int(h.NumBlocks); b++ {
		enc, base, cnt, err := r.blockBytes(data, b)
		if err == nil {
			adj, err = decodeRows(enc, base, cnt, n, offsets[base:base+cnt+1], adj)
		}
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", r.path, err)
		}
	}
	if uint64(len(adj)) != arcs {
		return nil, fmt.Errorf("store: %s: rows hold %d arcs, header declares 2m=%d", r.path, len(adj), arcs)
	}
	if u, ok := unmatchedArc(offsets, adj); !ok {
		return nil, fmt.Errorf("store: %s: vertex %d: adjacency is not symmetric", r.path, u)
	}
	return graph.FromCSR(offsets, adj), nil
}

// unmatchedArc checks that every arc of a CSR with sorted rows has its
// reverse. Visiting vertices in id order, each arc v→u with u < v must be
// the next unmet one among u's later neighbours, and at the end every
// later neighbour must have been met. It returns the vertex whose row
// breaks that and false, or 0 and true. The row checks of a decode cannot
// see this (a flipped delta byte still decodes to a valid row), and the
// prologue's peel and CTCP rely on it.
func unmatchedArc(off, adj []int32) (int32, bool) {
	n := int32(len(off) - 1)
	next := make([]int32, n) // next[u]: u's first later neighbour not yet met
	for v := int32(0); v < n; v++ {
		i := off[v]
		for ; i < off[v+1] && adj[i] < v; i++ {
			u := adj[i]
			if next[u] == off[u+1] || adj[next[u]] != v {
				return u, false
			}
			next[u]++
		}
		next[v] = i
	}
	for u := int32(0); u < n; u++ {
		if next[u] != off[u+1] {
			return u, false
		}
	}
	return 0, true
}

// VerifyDigest re-derives the content digest by streaming every block's
// canonical bytes and compares it with the header. It is a full O(n+m)
// scan — tooling (kplexstore inspect -verify) and tests use it; the serve
// path never does.
func (r *Reader) VerifyDigest() error {
	data := r.mapping()
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(buf[:], r.hdr.N)
	h.Write(buf[:w])
	for b := 0; b < int(r.hdr.NumBlocks); b++ {
		enc, base, cnt, err := r.blockBytes(data, b)
		if err == nil {
			// Validate the block decodes before trusting its bytes as canon.
			_, err = decodeBlock(enc, base, cnt, int(r.hdr.N))
		}
		if err != nil {
			return fmt.Errorf("store: %s: %w", r.path, err)
		}
		h.Write(enc)
	}
	var got [32]byte
	h.Sum(got[:0])
	if got != r.hdr.Digest {
		return fmt.Errorf("store: %s: content digest mismatch (header %x, computed %x)", r.path, r.hdr.Digest[:8], got[:8])
	}
	return nil
}

// clockCache is a fixed-capacity CLOCK (second-chance) cache of decoded
// blocks. CLOCK gives a scan-then-point-access pattern (one sequential
// pass, then random access) most of LRU's hit rate at a fraction of the
// bookkeeping: a hit only sets a reference bit, no list splice.
type clockCache struct {
	slots   []clockSlot
	byBlock map[int]int
	hand    int
}

type clockSlot struct {
	block int
	ref   bool
	blk   *decodedBlock
}

func newClockCache(capacity int) *clockCache {
	c := &clockCache{
		slots:   make([]clockSlot, 0, capacity),
		byBlock: make(map[int]int, capacity),
	}
	return c
}

func (c *clockCache) get(block int) *decodedBlock {
	i, ok := c.byBlock[block]
	if !ok {
		return nil
	}
	c.slots[i].ref = true
	return c.slots[i].blk
}

func (c *clockCache) put(block int, blk *decodedBlock) {
	if len(c.slots) < cap(c.slots) {
		c.byBlock[block] = len(c.slots)
		c.slots = append(c.slots, clockSlot{block: block, ref: true, blk: blk})
		return
	}
	// Sweep the hand: clear reference bits until an unreferenced slot
	// turns up. Bounded by two revolutions.
	for {
		s := &c.slots[c.hand]
		if s.ref {
			s.ref = false
			c.hand = (c.hand + 1) % len(c.slots)
			continue
		}
		delete(c.byBlock, s.block)
		c.byBlock[block] = c.hand
		*s = clockSlot{block: block, ref: true, blk: blk}
		c.hand = (c.hand + 1) % len(c.slots)
		return
	}
}

var _ graph.CSR = (*Reader)(nil)
var _ graph.StoredDigester = (*Reader)(nil)
var _ graph.Decoder = (*Reader)(nil)
