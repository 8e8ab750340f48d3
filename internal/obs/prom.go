package obs

import (
	"fmt"
	"io"
	"sort"
)

// PromWriter emits Prometheus text exposition format (version 0.0.4)
// with a # HELP and # TYPE line for every metric family — the single
// funnel all of kplexd's /metrics output goes through, so no series can
// ship without its metadata.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w. Write errors are sticky:
// the first one is remembered and returned by Err, and later calls
// become no-ops (a scrape client that went away needs no further work).
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter emits one counter sample. The name must already carry its
// _total suffix (the exposition format requires the suffix on the family
// name itself for counters in text format).
func (p *PromWriter) Counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, v int64) {
	p.header(name, help, "gauge")
	p.printf("%s %d\n", name, v)
}

// Histogram emits one histogram family: cumulative le-buckets, the +Inf
// bucket, _sum and _count.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot) {
	p.header(name, help, "histogram")
	p.histSeries(name, "", s)
}

// histSeries emits one histogram series; labels is empty or a rendered
// `k="v"` pair the series carries besides le.
func (p *PromWriter) histSeries(name, labels string, s HistogramSnapshot) {
	sel, le := "", "{"
	if labels != "" {
		sel, le = "{"+labels+"}", "{"+labels+","
	}
	var cum int64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.printf("%s_bucket%sle=\"%g\"} %d\n", name, le, b, cum)
	}
	p.printf("%s_bucket%sle=\"+Inf\"} %d\n", name, le, s.Count)
	p.printf("%s_sum%s %g\n", name, sel, s.Sum)
	p.printf("%s_count%s %d\n", name, sel, s.Count)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// sortedKeys returns m's keys in sorted order so exposition output is
// deterministic (scrape-diff friendly, and the tests rely on it).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterVec emits one counter family with a sample per label value,
// sorted by value for deterministic output. An empty map emits nothing —
// a family with no series needs no metadata.
func (p *PromWriter) CounterVec(name, help, label string, samples map[string]int64) {
	p.vec(name, help, "counter", label, samples)
}

// GaugeVec emits one gauge family with a sample per label value.
func (p *PromWriter) GaugeVec(name, help, label string, samples map[string]int64) {
	p.vec(name, help, "gauge", label, samples)
}

func (p *PromWriter) vec(name, help, typ, label string, samples map[string]int64) {
	if len(samples) == 0 {
		return
	}
	p.header(name, help, typ)
	for _, k := range sortedKeys(samples) {
		p.printf("%s{%s=\"%s\"} %d\n", name, label, escapeLabelValue(k), samples[k])
	}
}

// HistogramVec emits one histogram family with a full bucket series per
// label value.
func (p *PromWriter) HistogramVec(name, help, label string, samples map[string]HistogramSnapshot) {
	if len(samples) == 0 {
		return
	}
	p.header(name, help, "histogram")
	for _, k := range sortedKeys(samples) {
		p.histSeries(name, label+"=\""+escapeLabelValue(k)+"\"", samples[k])
	}
}
