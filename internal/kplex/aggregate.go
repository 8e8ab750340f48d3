package kplex

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
)

// Aggregate is the mergeable summary of (part of) an enumeration: the plex
// count, the size histogram, a bounded list of the largest plexes, an
// order-independent digest of the plex set, and the accrued search
// counters. Merging is associative and commutative over disjoint plex
// sets, which is what lets a SeedCollector commit per-seed contributions
// in whatever order the parallel workers complete them — and the cluster layer
// merge per-range ones — and still converge to the result of an
// uninterrupted run.
type Aggregate struct {
	Count     int64         `json:"count"`
	MaxSize   int           `json:"maxSize"`
	TopN      int           `json:"topn"`
	TopK      [][]int       `json:"topk,omitempty"` // size desc, then lex asc; len <= TopN
	Histogram map[int]int64 `json:"hist,omitempty"`
	// PlexXor is the hex form of xor, filled by Snapshot and read back by
	// Unseal around serialization; runtime updates go through xor directly.
	PlexXor string `json:"plexXor,omitempty"`
	Stats   Stats  `json:"stats"`

	xor [sha256.Size]byte
}

// NewAggregate returns an empty aggregate keeping the topN largest plexes.
// The histogram map is allocated lazily: a SeedCollector creates one
// aggregate per productive seed group, and most groups contribute few
// plexes.
func NewAggregate(topN int) *Aggregate {
	return &Aggregate{TopN: topN}
}

// newRunAggregate returns an empty aggregate keeping the topN largest
// plexes, with TopK and Histogram allocated so that an empty result reports
// an empty list and map, not nil ones.
func newRunAggregate(topN int) *Aggregate {
	return &Aggregate{TopN: topN, TopK: make([][]int, 0, topN), Histogram: make(map[int]int64)}
}

// aggregatePrepared runs one enumeration against p and folds every plex
// into one aggregate keeping the topN largest: the shared body of
// EnumerateTopKPrepared and SizeHistogramPrepared. The run uses opts as
// given except for OnPlex, which it owns. The aggregate is returned even
// when the run fails, covering the plexes found before it stopped.
func aggregatePrepared(ctx context.Context, p *Prepared, opts Options, topN int) (*Aggregate, Result, error) {
	agg := newRunAggregate(topN)
	var mu sync.Mutex
	opts.OnPlex = func(pl []int) {
		mu.Lock()
		agg.add(pl)
		mu.Unlock()
	}
	res, err := RunPrepared(ctx, p, opts)
	return agg, res, err
}

// plexLine renders p in the canonical "v1 v2 ...\n" form shared with the
// golden-corpus hashing, so digests are comparable across tooling.
func plexLine(p []int) []byte {
	line := make([]byte, 0, 8*len(p))
	for i, v := range p {
		if i > 0 {
			line = append(line, ' ')
		}
		line = strconv.AppendInt(line, int64(v), 10)
	}
	return append(line, '\n')
}

// AddPlex folds one maximal k-plex into the aggregate, digest included.
// The slice is copied if retained, so callers may reuse it (the OnPlexSeed
// contract).
func (a *Aggregate) AddPlex(p []int) {
	a.add(p)
	h := sha256.Sum256(plexLine(p))
	for i := range a.xor {
		a.xor[i] ^= h[i]
	}
}

// add is AddPlex without the digest: the accumulation step of every
// consumer that reports count, MaxSize, histogram or top-k but never
// PlexDigest.
func (a *Aggregate) add(p []int) {
	a.Count++
	n := len(p)
	if n > a.MaxSize {
		a.MaxSize = n
	}
	if a.Histogram == nil {
		a.Histogram = make(map[int]int64)
	}
	a.Histogram[n]++
	if a.TopN > 0 {
		a.TopK = insertTopK(a.TopK, a.TopN, p, false)
	}
}

// Merge folds b into a. The two must summarise disjoint plex sets.
func (a *Aggregate) Merge(b *Aggregate) {
	a.Count += b.Count
	if b.MaxSize > a.MaxSize {
		a.MaxSize = b.MaxSize
	}
	if a.Histogram == nil && len(b.Histogram) > 0 {
		a.Histogram = make(map[int]int64, len(b.Histogram))
	}
	for s, c := range b.Histogram {
		a.Histogram[s] += c
	}
	for i := range a.xor {
		a.xor[i] ^= b.xor[i]
	}
	for _, p := range b.TopK {
		a.TopK = insertTopK(a.TopK, a.TopN, p, true)
	}
	a.Stats.Add(b.Stats)
}

// Unseal restores the runtime digest from the serialized field after
// unmarshalling an aggregate written by Snapshot (a log record, a
// worker's range answer).
func (a *Aggregate) Unseal() error {
	if a.PlexXor == "" {
		a.xor = [sha256.Size]byte{}
		return nil
	}
	raw, err := hex.DecodeString(a.PlexXor)
	if err != nil || len(raw) != sha256.Size {
		return fmt.Errorf("kplex: corrupt plex digest %q", a.PlexXor)
	}
	copy(a.xor[:], raw)
	return nil
}

// Snapshot returns a deep copy with the serialized digest filled in: safe
// to marshal while the original keeps mutating.
func (a *Aggregate) Snapshot() *Aggregate {
	cp := &Aggregate{
		Count:   a.Count,
		MaxSize: a.MaxSize,
		TopN:    a.TopN,
		PlexXor: a.PlexDigest(),
		Stats:   a.Stats,
		xor:     a.xor,
	}
	if len(a.TopK) > 0 {
		cp.TopK = make([][]int, len(a.TopK))
		for i, p := range a.TopK {
			cp.TopK[i] = append([]int(nil), p...)
		}
	}
	if len(a.Histogram) > 0 {
		cp.Histogram = make(map[int]int64, len(a.Histogram))
		for s, c := range a.Histogram {
			cp.Histogram[s] = c
		}
	}
	return cp
}

// PlexDigest returns the hex order-independent digest of the summarised
// plex set: the XOR of the SHA-256 of each plex's canonical line. Two
// aggregates over the same plex set compare equal regardless of the order
// (or partition) the plexes were added in.
func (a *Aggregate) PlexDigest() string {
	return hex.EncodeToString(a.xor[:])
}
