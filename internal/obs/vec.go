package obs

// Labeled metric families: a counter, gauge-style value, or histogram per
// label value (kplexd uses one label — the tenant). Deliberately minimal:
// a mutex-guarded map materializing series on first touch, so an
// unconfigured single-tenant deployment pays one map lookup per event and
// exposes one series.

import "sync"

// CounterVec is a monotonic counter per label value.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]int64
}

// newCounterVec returns an empty CounterVec.
func newCounterVec() *CounterVec {
	return &CounterVec{m: make(map[string]int64)}
}

// Add increments label's series by d.
func (v *CounterVec) Add(label string, d int64) {
	v.mu.Lock()
	v.m[label] += d
	v.mu.Unlock()
}

// Snapshot returns a copy of every series.
func (v *CounterVec) Snapshot() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c
	}
	return out
}

// HistogramVec is a Histogram per label value, all sharing one bucket
// layout.
type HistogramVec struct {
	mu     sync.Mutex
	bounds []float64
	m      map[string]*Histogram
}

// newHistogramVec returns an empty HistogramVec over bounds (see
// newHistogram).
func newHistogramVec(bounds []float64) *HistogramVec {
	return &HistogramVec{bounds: bounds, m: make(map[string]*Histogram)}
}

// With returns label's histogram, materializing it on first use.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.Lock()
	h := v.m[label]
	if h == nil {
		h = newHistogram(v.bounds)
		v.m[label] = h
	}
	v.mu.Unlock()
	return h
}

// Observe records x in label's series.
func (v *HistogramVec) Observe(label string, x float64) {
	v.With(label).Observe(x)
}

// Snapshot returns a point-in-time snapshot of every series.
func (v *HistogramVec) Snapshot() map[string]HistogramSnapshot {
	v.mu.Lock()
	hs := make(map[string]*Histogram, len(v.m))
	for k, h := range v.m {
		hs[k] = h
	}
	v.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hs))
	for k, h := range hs {
		out[k] = h.Snapshot()
	}
	return out
}
