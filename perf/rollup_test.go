package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func span(name string, origin time.Time, startMS, endMS float64) obs.SpanData {
	return obs.SpanData{Name: name, Start: origin.Add(time.Duration(startMS * float64(time.Millisecond))), DurationMS: endMS - startMS}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSelfTimeSubtractsOverlappingSpansOnce(t *testing.T) {
	origin := time.Unix(1000, 0)
	td := obs.TraceData{Start: origin, DurationMS: 100, Spans: []obs.SpanData{
		span("singleflight", origin, 10, 30),
		span("admission", origin, 20, 40),  // overlaps the previous one
		span("prepare", origin, 25, 35),    // nested in both
		span("enumerate", origin, 90, 120), // runs past the root's end
		span("cache", origin, 60, 60),      // empty
	}}
	// Covered: [10, 40] and [90, 100], 40 ms of the root's 100.
	if got := selfMS(td); !near(got, 60) {
		t.Fatalf("selfMS = %v, want 60", got)
	}
	if got := selfMS(obs.TraceData{Start: origin, DurationMS: 7}); !near(got, 7) {
		t.Fatalf("selfMS without spans = %v, want 7", got)
	}
	touching := obs.TraceData{Start: origin, DurationMS: 10, Spans: []obs.SpanData{
		span("a", origin, 0, 4), span("b", origin, 4, 6), span("c", origin, -5, 1),
	}}
	if got := selfMS(touching); !near(got, 4) {
		t.Fatalf("selfMS with touching spans = %v, want 4", got)
	}
}

func TestRollupSumsAndPercentilesPerName(t *testing.T) {
	origin := time.Unix(1000, 0)
	var traces []obs.TraceData
	for i := 1; i <= 100; i++ {
		traces = append(traces, obs.TraceData{Start: origin, DurationMS: 200, Spans: []obs.SpanData{
			span("admission", origin, 0, float64(i)),
			span("prepare", origin, 0, 2),
		}})
	}
	r := rollup(traces)
	adm := get(r, "admission")
	if adm.count() != 100 || !near(adm.sum, 5050) {
		t.Fatalf("admission count/sum = %d/%v, want 100/5050", adm.count(), adm.sum)
	}
	if !near(adm.q(0.5), 50.5) || !near(adm.q(0.99), 99.01) {
		t.Fatalf("admission p50/p99 = %v/%v, want 50.5/99.01", adm.q(0.5), adm.q(0.99))
	}
	if p := get(r, "prepare"); p.count() != 100 || !near(p.sum, 200) || !near(p.q(0.99), 2) {
		t.Fatalf("prepare roll-up = %d/%v/%v", p.count(), p.sum, p.q(0.99))
	}
	if missing := get(r, "checkpoint"); missing.count() != 0 || missing.sum != 0 || missing.q(0.5) != 0 {
		t.Fatal("a name with no spans must roll up to zero")
	}
}

func TestOverheadPct(t *testing.T) {
	for _, c := range []struct{ traced, untraced, want float64 }{
		{110, 100, 10}, {95, 100, -5}, {3, 3, 0}, {5, 0, 0},
	} {
		if got := overheadPct(c.traced, c.untraced); !near(got, c.want) {
			t.Errorf("overheadPct(%v, %v) = %v, want %v", c.traced, c.untraced, got, c.want)
		}
	}
}
