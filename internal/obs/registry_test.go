package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

func TestRegistryRejectsEmptyHelp(t *testing.T) {
	for kind, register := range map[string]func(r *Registry){
		"counter":   func(r *Registry) { r.Counter("c", "") },
		"gauge":     func(r *Registry) { r.Gauge("g", "") },
		"gaugefunc": func(r *Registry) { r.GaugeFunc("f", "", func() int64 { return 0 }) },
		"histogram": func(r *Registry) { r.Histogram("h", "", []float64{1}) },
		"countervec": func(r *Registry) {
			r.CounterVec("cv", "", "tenant")
		},
		"histogramvec": func(r *Registry) {
			r.HistogramVec("hv", "", "tenant", []float64{1})
		},
		"gaugevecfunc": func(r *Registry) {
			r.GaugeVecFunc("gv", "", "tenant", func() map[string]int64 { return nil })
		},
		"noname": func(r *Registry) { r.Counter("", "Help.") },
	} {
		t.Run(kind, func(t *testing.T) {
			mustPanic(t, "without a name or help", func() { register(NewRegistry()) })
		})
	}
}

func TestRegistryRejectsDuplicateName(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries", "Queries.")
	mustPanic(t, `"queries" registered twice`, func() { r.Gauge("queries", "Again.") })

	// A mount that collides with a name the parent already holds panics
	// the same way.
	child := NewRegistry()
	child.Counter("submitted", "Jobs submitted.")
	parent := NewRegistry()
	parent.Counter("jobs_submitted", "Taken.")
	mustPanic(t, `"jobs_submitted" registered twice`, func() { parent.Mount("jobs_", child) })
}

func TestRegistryMountComposesPrefixes(t *testing.T) {
	// The job lifecycle is declared once and mounted twice: directly
	// under jobs_, and under a coordinator that is itself mounted under
	// cluster_.
	lifecycle := func() *Registry {
		r := NewRegistry()
		r.Counter("submitted", "Jobs submitted.").Add(2)
		r.Gauge("running", "Jobs running.").Add(1)
		return r
	}
	coord := NewRegistry()
	coord.Counter("ranges_done", "Ranges done.").Add(5)
	coord.Mount("jobs_", lifecycle())

	root := NewRegistry()
	root.Counter("queries", "Queries.").Add(7)
	root.GaugeFunc("cache_entries", "Cache entries.", func() int64 { return 3 })
	root.Mount("jobs_", lifecycle())
	root.Mount("cluster_", coord)

	want := map[string]int64{
		"queries":                7,
		"jobs_submitted":         2,
		"jobs_running":           1,
		"cluster_ranges_done":    5,
		"cluster_jobs_submitted": 2,
		"cluster_jobs_running":   1,
	}
	if got := root.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v (sampled gauges stay out)", got, want)
	}

	var sb strings.Builder
	if err := root.WritePrometheus(&sb, "kplexd_"); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, rest)
		}
	}
	wantFamilies := []string{
		"kplexd_cache_entries gauge",
		"kplexd_cluster_jobs_running gauge",
		"kplexd_cluster_jobs_submitted_total counter",
		"kplexd_cluster_ranges_done_total counter",
		"kplexd_jobs_running gauge",
		"kplexd_jobs_submitted_total counter",
		"kplexd_queries_total counter",
	}
	if !reflect.DeepEqual(families, wantFamilies) {
		t.Fatalf("families = %q, want %q", families, wantFamilies)
	}
}

// TestRegistryMatchesPromWriter renders one registry and the same
// samples through PromWriter by hand: the bytes must be identical.
func TestRegistryMatchesPromWriter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries", "Queries served.")
	g := r.Gauge("jobs_running", "Jobs running.")
	r.GaugeFunc("cache_entries", "Cached results.", func() int64 { return 3 })
	h := r.Histogram("query_duration_seconds", "Latency.", []float64{0.5, 1})
	cv := r.CounterVec("tenant_queries", "Queries per tenant.", "tenant")
	hv := r.HistogramVec("tenant_wait_seconds", "Wait per tenant.", "tenant", []float64{1})
	r.CounterVecFunc("tenant_admitted", "Admissions per tenant.", "tenant", func() map[string]int64 {
		return map[string]int64{"a": 4, "b\"": 1}
	})
	r.GaugeVecFunc("tenant_running", "Running per tenant.", "tenant", func() map[string]int64 {
		return map[string]int64{"a": 2}
	})
	r.GaugeVecFunc("tenant_idle", "Empty families emit nothing.", "tenant", func() map[string]int64 { return nil })
	c.Add(7)
	g.Add(2)
	g.Add(-1)
	h.Observe(0.2)
	h.Observe(9)
	cv.Add("a", 3)
	hv.Observe("a", 0.5)

	var got strings.Builder
	if err := r.WritePrometheus(&got, "kplexd_"); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	pw := NewPromWriter(&want)
	pw.Gauge("kplexd_cache_entries", "Cached results.", 3)
	pw.Gauge("kplexd_jobs_running", "Jobs running.", 1)
	pw.Counter("kplexd_queries_total", "Queries served.", 7)
	pw.Histogram("kplexd_query_duration_seconds", "Latency.", h.Snapshot())
	pw.CounterVec("kplexd_tenant_admitted_total", "Admissions per tenant.", "tenant", map[string]int64{"a": 4, "b\"": 1})
	pw.GaugeVec("kplexd_tenant_idle", "Empty families emit nothing.", "tenant", nil)
	pw.CounterVec("kplexd_tenant_queries_total", "Queries per tenant.", "tenant", cv.Snapshot())
	pw.GaugeVec("kplexd_tenant_running", "Running per tenant.", "tenant", map[string]int64{"a": 2})
	pw.HistogramVec("kplexd_tenant_wait_seconds", "Wait per tenant.", "tenant", hv.Snapshot())
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("registry exposition:\n%s\nPromWriter:\n%s", got.String(), want.String())
	}
}

// TestRegistryConcurrentAdd hammers the hot path (run under -race):
// updates from many goroutines, with snapshots and scrapes in between,
// lose nothing.
func TestRegistryConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries", "Queries.")
	g := r.Gauge("running", "Running.")
	h := r.Histogram("wait_seconds", "Wait.", DefaultLatencyBuckets)
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
				if i%500 == 0 {
					r.Snapshot()
					r.WritePrometheus(&strings.Builder{}, "x_") //nolint:errcheck
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap["queries"] != workers*each || snap["running"] != 0 {
		t.Fatalf("snapshot = %v, want queries=%d running=0", snap, workers*each)
	}
	if n := h.Snapshot().Count; n != workers*each {
		t.Fatalf("histogram count = %d, want %d", n, workers*each)
	}
}
