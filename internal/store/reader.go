package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Reader is an mmap-backed graph implementing graph.CSR over a store
// file. Opening is O(1): only the header is read and validated; adjacency
// blocks are decoded lazily on first touch and kept in a small
// CLOCK-evicted cache, so repeat prologue scans (and repeat seed builds
// over the same region) don't re-varint-decode.
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

// DefaultCacheBlocks is the default decoded-block cache capacity. At the
// default block geometry this keeps roughly half a million vertices'
// decoded adjacency resident — enough that the O(n+m) prologue over a
// multi-million-vertex graph mostly decodes each block once.
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
// miss; the prologue's degree scan is sequential, so each block decodes
// once and every later Degree/Neighbors in the block hits the cache.
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

// blockOffset reads index entry b straight out of the mapping — the index
// is fixed-width, so no part of it is parsed at open time.
func (r *Reader) blockOffset(b int) uint64 {
	return binary.LittleEndian.Uint64(r.data[r.hdr.IndexOff+8*uint64(b):])
}

func (r *Reader) block(v int) *decodedBlock {
	if v < 0 || uint64(v) >= r.hdr.N {
		panic(fmt.Sprintf("store: vertex %d out of range [0,%d)", v, r.hdr.N))
	}
	b := v / int(r.hdr.BlockVerts)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		panic("store: use of closed Reader (registry refcount bug?)")
	}
	if blk := r.cache.get(b); blk != nil {
		return blk
	}
	blk, err := r.decodeBlockLocked(b)
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

func (r *Reader) decodeBlockLocked(b int) (*decodedBlock, error) {
	lo, hi := r.blockOffset(b), r.blockOffset(b+1)
	if lo > hi || hi > r.hdr.DataOff+r.hdr.DataLen || lo < r.hdr.DataOff {
		return nil, fmt.Errorf("block %d has invalid extent [%d,%d)", b, lo, hi)
	}
	base := b * int(r.hdr.BlockVerts)
	cnt := min(int(r.hdr.N)-base, int(r.hdr.BlockVerts))
	return decodeBlock(r.data[lo:hi], base, cnt, int(r.hdr.N))
}

// VerifyDigest re-derives the content digest by streaming every block's
// canonical bytes and compares it with the header. It is a full O(n+m)
// scan — tooling (kplexstore inspect -verify) and tests use it; the serve
// path never does.
func (r *Reader) VerifyDigest() error {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(buf[:], r.hdr.N)
	h.Write(buf[:w])
	for b := 0; b < int(r.hdr.NumBlocks); b++ {
		lo, hi := r.blockOffset(b), r.blockOffset(b+1)
		if lo > hi || hi > r.hdr.DataOff+r.hdr.DataLen || lo < r.hdr.DataOff {
			return fmt.Errorf("store: %s: block %d has invalid extent [%d,%d)", r.path, b, lo, hi)
		}
		// Validate the block decodes before trusting its bytes as canon.
		base := b * int(r.hdr.BlockVerts)
		cnt := min(int(r.hdr.N)-base, int(r.hdr.BlockVerts))
		if _, err := decodeBlock(r.data[lo:hi], base, cnt, int(r.hdr.N)); err != nil {
			return fmt.Errorf("store: %s: %w", r.path, err)
		}
		h.Write(r.data[lo:hi])
	}
	var got [32]byte
	h.Sum(got[:0])
	if got != r.hdr.Digest {
		return fmt.Errorf("store: %s: content digest mismatch (header %x, computed %x)", r.path, r.hdr.Digest[:8], got[:8])
	}
	return nil
}

// clockCache is a fixed-capacity CLOCK (second-chance) cache of decoded
// blocks. CLOCK gives the scan-then-point-access pattern of the prologue
// (one sequential degree pass, then peel-order random access) most of
// LRU's hit rate at a fraction of the bookkeeping: a hit only sets a
// reference bit, no list splice.
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
