package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Registry is the one declaration site of the metrics a component
// exports. A counter, gauge, histogram or labeled family exists only
// through a registration call that names, types and documents it in one
// statement, and both the JSON counter map (Snapshot) and the Prometheus
// exposition (WritePrometheus) walk the registry: there is no second
// list to keep in step. An empty name or help string, or a name already
// taken, panics at registration — a programming error that any test
// constructing the owner trips.
//
// Names are the /stats keys ("queries", "jobs_running"); the exposition
// prepends a namespace and gives counters their _total suffix.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
}

// entry is one registered family. load is its Snapshot value (Counter and
// Gauge only); write emits it under its exposed name.
type entry struct {
	name  string
	help  string
	load  func() int64
	write func(p *PromWriter, exposed string)
}

// Counter is a monotonic count and Gauge a value that moves both ways.
// Both are a bare atomic: an update is one atomic add, with no lookup and
// no lock.
type (
	Counter struct{ atomic.Int64 }
	Gauge   struct{ atomic.Int64 }
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: make(map[string]entry)} }

func (r *Registry) add(e entry) {
	if e.name == "" || e.help == "" {
		panic(fmt.Sprintf("obs: metric %q registered without a name or help", e.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", e.name))
	}
	r.entries[e.name] = e
}

// list returns the entries in name order.
func (r *Registry) list() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]entry, 0, len(r.entries))
	for _, name := range sortedKeys(r.entries) {
		out = append(out, r.entries[name])
	}
	return out
}

// Mount adds every metric child holds to r under prefix, so a subsystem
// declares its metrics once and each host places them under its own name
// ("jobs_", "cluster_"). The child must be fully declared by then.
func (r *Registry) Mount(prefix string, child *Registry) {
	for _, e := range child.list() {
		e.name = prefix + e.name
		r.add(e)
	}
}

// Counter declares a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.add(entry{name, help, c.Load, func(p *PromWriter, n string) { p.Counter(n+"_total", help, c.Load()) }})
	return c
}

// Gauge declares a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.add(entry{name, help, g.Load, func(p *PromWriter, n string) { p.Gauge(n, help, g.Load()) }})
	return g
}

// GaugeFunc declares a gauge sampled from f at exposition time, for a
// value another structure owns (a cache's length). Snapshot leaves it out.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(entry{name, help, nil, func(p *PromWriter, n string) { p.Gauge(n, help, f()) }})
}

// Histogram declares a histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.add(entry{name, help, nil, func(p *PromWriter, n string) { p.Histogram(n, help, h.Snapshot()) }})
	return h
}

// CounterVec declares a counter family with one series per label value.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := newCounterVec()
	r.CounterVecFunc(name, help, label, v.Snapshot)
	return v
}

// HistogramVec declares a histogram family with one series per label
// value, all over bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := newHistogramVec(bounds)
	r.add(entry{name, help, nil, func(p *PromWriter, n string) { p.HistogramVec(n, help, label, v.Snapshot()) }})
	return v
}

// CounterVecFunc declares a labeled counter family sampled from f at
// exposition time.
func (r *Registry) CounterVecFunc(name, help, label string, f func() map[string]int64) {
	r.add(entry{name, help, nil, func(p *PromWriter, n string) { p.CounterVec(n+"_total", help, label, f()) }})
}

// GaugeVecFunc declares a labeled gauge family sampled from f at
// exposition time.
func (r *Registry) GaugeVecFunc(name, help, label string, f func() map[string]int64) {
	r.add(entry{name, help, nil, func(p *PromWriter, n string) { p.GaugeVec(n, help, label, f()) }})
}

// Snapshot returns every Counter and Gauge value by name.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	for _, e := range r.list() {
		if e.load != nil {
			out[e.name] = e.load()
		}
	}
	return out
}

// WritePrometheus emits every family in name order, exposed as
// namespace+name, and returns the first write error.
func (r *Registry) WritePrometheus(w io.Writer, namespace string) error {
	p := NewPromWriter(w)
	for _, e := range r.list() {
		e.write(p, namespace+e.name)
	}
	return p.Err()
}
