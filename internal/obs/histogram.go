package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram safe for concurrent Observe. The
// bucket layout is immutable after construction, so observation is two
// atomic adds plus a binary search — no locks on the hot path. Values are
// unitless; latency histograms observe seconds by convention (matching
// the Prometheus _seconds suffix).
type Histogram struct {
	bounds []float64      // ascending upper bounds; implicit +Inf last
	counts []atomic.Int64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// newHistogram returns a histogram over the given ascending upper bounds.
// Panics on an empty or unsorted layout — bucket layouts are package-level
// constants, so this is a programming error, not input validation.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: empty histogram bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 0.5ms .. ~65s in powers of two (18 bounds),
// covering sub-millisecond cache hits through multi-minute enumerations.
var DefaultLatencyBuckets = ExpBuckets(0.0005, 2, 18)

// FsyncBuckets spans 50µs .. ~0.8s: WAL fsyncs sit well under a
// millisecond on local SSDs and blow past 100ms when a device stalls.
var FsyncBuckets = ExpBuckets(0.00005, 2, 14)

// LogErrorBuckets grades the cost model's |ln(predicted/actual)|:
// 0.1 ≈ within 10%, 0.7 ≈ within 2x, 2.3 ≈ within 10x.
var LogErrorBuckets = []float64{0.05, 0.1, 0.2, 0.4, 0.7, 1.2, 1.6, 2.3, 3.2}

// Observe records one value. NaN is dropped (it would poison the sum and
// cannot be bucketed meaningfully).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is >= v (Prometheus buckets are
	// le-inclusive); SearchFloat64s finds the first bound > v for exact
	// boundary hits it must include, so search with >=.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
// Count is derived by summing the buckets, so Count and Counts are always
// mutually consistent even when taken mid-Observe (Sum may trail by the
// in-flight observations — acceptable for monitoring).
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot returns a consistent copy for exposition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}
