package server

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/kplex"
)

// queryResult is one completed cacheable query: everything needed to
// answer an identical query again without touching the engine. It is
// immutable once stored — handlers serialise it, never mutate it.
type queryResult struct {
	Mode       string
	Count      int64
	MaxSize    int
	Elapsed    time.Duration // of the original execution
	Stats      kplex.Stats
	TopK       [][]int       // mode "topk" only
	Histogram  map[int]int64 // mode "histogram" only
	Digest     string
	ComputedAt time.Time
	Sample     *kplex.SampleEstimate // sample:<rate> queries only

	// Job is set instead of a result when a route=auto query was handed
	// to the job subsystem; such a value answers 202 and is never cached.
	Job       *jobs.Manifest
	Predicted time.Duration // the calibrated prediction that routed Job
}

// lru is a mutex-guarded least-recently-used map with a fixed capacity.
// The server keeps two: completed query results, keyed by (graph digest |
// normalized options | mode-specific parameters) — see cacheKey — and
// prepared prologue handles, keyed by preparedKey. Keying on the digest
// rather than the graph name means a graph registered under two names, or
// evicted and reloaded from the same file, keeps its cached entries.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put stores (or refreshes) a value, evicting the least recently used
// entry beyond capacity.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[V]).key)
	}
}

// len returns the number of cached entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
