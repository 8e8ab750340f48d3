package obs

import (
	"errors"
	"strings"
	"testing"
)

func TestPromWriterCounterGauge(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Counter("kplexd_queries_total", "Queries served.", 7)
	pw.Gauge("kplexd_cache_entries", "Cached results.", 3)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP kplexd_queries_total Queries served.\n" +
		"# TYPE kplexd_queries_total counter\n" +
		"kplexd_queries_total 7\n" +
		"# HELP kplexd_cache_entries Cached results.\n" +
		"# TYPE kplexd_cache_entries gauge\n" +
		"kplexd_cache_entries 3\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := newHistogram([]float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(9)
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Histogram("kplexd_q_seconds", "Latency.", h.Snapshot())
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP kplexd_q_seconds Latency.\n" +
		"# TYPE kplexd_q_seconds histogram\n" +
		"kplexd_q_seconds_bucket{le=\"0.5\"} 1\n" +
		"kplexd_q_seconds_bucket{le=\"1\"} 2\n" +
		"kplexd_q_seconds_bucket{le=\"+Inf\"} 3\n" +
		"kplexd_q_seconds_sum 9.9\n" +
		"kplexd_q_seconds_count 3\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("pipe broke")
}

func TestPromWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	pw := NewPromWriter(fw)
	pw.Counter("a_total", "h", 1)
	pw.Counter("b_total", "h", 2)
	if pw.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if fw.n != 1 {
		t.Fatalf("writer called %d times after first failure, want 1", fw.n)
	}
}
