package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVec(t *testing.T) {
	v := newCounterVec()
	v.Add("a", 1)
	v.Add("b", 2)
	v.Add("a", 3)
	snap := v.Snapshot()
	if snap["a"] != 4 || snap["b"] != 2 || len(snap) != 2 {
		t.Fatalf("snapshot %v", snap)
	}
	// Snapshot is a copy.
	snap["a"] = 99
	if v.Snapshot()["a"] != 4 {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestHistogramVec(t *testing.T) {
	v := newHistogramVec([]float64{1, 10})
	v.Observe("x", 0.5)
	v.Observe("x", 5)
	v.Observe("y", 100)
	snap := v.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 series, got %d", len(snap))
	}
	if s := snap["x"]; s.Count != 2 || s.Counts[0] != 1 || s.Counts[1] != 1 {
		t.Errorf("series x: %+v", s)
	}
	if s := snap["y"]; s.Count != 1 || s.Counts[2] != 1 {
		t.Errorf("series y overflow bucket: %+v", s)
	}
	if v.With("x") != v.With("x") {
		t.Error("With does not return a stable series")
	}
}

func TestVecConcurrent(t *testing.T) {
	cv := newCounterVec()
	hv := newHistogramVec(DefaultLatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := string(rune('a' + g%3))
			for i := 0; i < 1000; i++ {
				cv.Add(label, 1)
				hv.Observe(label, 0.001)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, c := range cv.Snapshot() {
		total += c
	}
	if total != 8000 {
		t.Fatalf("counter total %d, want 8000", total)
	}
	var hTotal int64
	for _, s := range hv.Snapshot() {
		hTotal += s.Count
	}
	if hTotal != 8000 {
		t.Fatalf("histogram total %d, want 8000", hTotal)
	}
}

func TestPromWriterVecs(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.CounterVec("kplexd_tenant_queries_total", "Queries per tenant.", "tenant",
		map[string]int64{"gold": 3, "bro\"nze": 1})
	p.GaugeVec("kplexd_tenant_running", "Running per tenant.", "tenant",
		map[string]int64{"gold": 2})
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	p.HistogramVec("kplexd_tenant_wait_seconds", "Wait per tenant.", "tenant",
		map[string]HistogramSnapshot{"gold": h.Snapshot()})
	// Empty families are silent.
	p.CounterVec("kplexd_none_total", "Nothing.", "tenant", nil)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP kplexd_tenant_queries_total Queries per tenant.\n",
		"# TYPE kplexd_tenant_queries_total counter\n",
		"kplexd_tenant_queries_total{tenant=\"bro\\\"nze\"} 1\n",
		"kplexd_tenant_queries_total{tenant=\"gold\"} 3\n",
		"kplexd_tenant_running{tenant=\"gold\"} 2\n",
		"kplexd_tenant_wait_seconds_bucket{tenant=\"gold\",le=\"1\"} 1\n",
		"kplexd_tenant_wait_seconds_bucket{tenant=\"gold\",le=\"+Inf\"} 1\n",
		"kplexd_tenant_wait_seconds_count{tenant=\"gold\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "kplexd_none_total") {
		t.Error("empty family emitted metadata")
	}
	// Sorted label order: bro"nze before gold.
	if strings.Index(out, "bro") > strings.Index(out, "gold") {
		t.Error("samples not sorted by label value")
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := escapeLabelValue(`a\b"c` + "\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escaped %q", got)
	}
}
