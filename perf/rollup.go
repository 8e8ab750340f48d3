package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Span roll-up. The spans of one trace are flat: they carry no parent id,
// and a layer's span may nest inside or overlap another's (the server's
// "singleflight" span contains its "admission", "prepare" and "enumerate"
// spans). A root's self time is therefore its duration minus the union of
// the span intervals inside it, so overlapping spans are subtracted once.

// interval is a span of time in milliseconds from a common origin.
type interval struct{ start, end float64 }

// coveredMS returns the length of the union of ivs clipped to within.
func coveredMS(within interval, ivs []interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.start = max(iv.start, within.start)
		iv.end = min(iv.end, within.end)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	if len(clipped) == 0 {
		return 0
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total, cur := 0.0, clipped[0]
	for _, iv := range clipped[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return total + cur.end - cur.start
}

// selfMS is the part of the trace's own duration that none of its spans
// covers: for a server request, decoding, registry lookup and encoding.
func selfMS(td obs.TraceData) float64 {
	ivs := make([]interval, len(td.Spans))
	for i, sp := range td.Spans {
		start := msSince(td.Start, sp.Start)
		ivs[i] = interval{start, start + sp.DurationMS}
	}
	return td.DurationMS - coveredMS(interval{0, td.DurationMS}, ivs)
}

func msSince(origin, t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Millisecond) }

// spanStats is the roll-up of every span of one name.
type spanStats struct {
	durs []float64
	sum  float64
}

func (s *spanStats) count() int             { return len(s.durs) }
func (s *spanStats) q(p float64) float64    { return quantile(s.durs, p) }
func (s *spanStats) add(durationMS float64) { s.durs = append(s.durs, durationMS); s.sum += durationMS }

// rollup groups the spans of traces by name. A nil entry reads as zero.
func rollup(traces []obs.TraceData) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, td := range traces {
		for _, sp := range td.Spans {
			st := out[sp.Name]
			if st == nil {
				st = &spanStats{}
				out[sp.Name] = st
			}
			st.add(sp.DurationMS)
		}
	}
	return out
}

// get returns the named roll-up, or an empty one.
func get(r map[string]*spanStats, name string) *spanStats {
	if st := r[name]; st != nil {
		return st
	}
	return &spanStats{}
}

// overheadPct is how much slower the traced measurement is, in percent of
// the untraced one (0 when there is nothing to compare against).
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced/untraced - 1) * 100
}
