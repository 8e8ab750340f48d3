package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(8, 1)
	tc := tr.Start("query")
	if tc == nil {
		t.Fatal("sampleEvery=1 must trace every request")
	}
	sp := tc.StartSpan("prepare").Attr("graph", "g")
	time.Sleep(time.Millisecond)
	sp.End()
	tc.StartSpan("enumerate").EndErr(nil)
	tc.StartSpan("doomed").EndErr(errors.New("boom"))
	tc.StartSpan("gone").EndErr(context.Canceled)
	tc.Finish()

	td, ok := tr.Get(tc.ID())
	if !ok {
		t.Fatalf("trace %s not in ring", tc.ID())
	}
	if len(td.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if s := byName["prepare"]; s.Status != "ok" || s.DurationMS <= 0 || s.Attrs["graph"] != "g" {
		t.Fatalf("prepare span = %+v", s)
	}
	if s := byName["doomed"]; s.Status != "failed" || s.Attrs["error"] != "boom" {
		t.Fatalf("doomed span = %+v", s)
	}
	if s := byName["gone"]; s.Status != "cancelled" {
		t.Fatalf("cancelled span = %+v", s)
	}
	if td.DurationMS <= 0 {
		t.Fatalf("trace duration = %g", td.DurationMS)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(64, 3)
	var sampled int
	for i := 0; i < 30; i++ {
		if tc := tr.Start("q"); tc != nil {
			sampled++
			tc.Finish()
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 30 with sampleEvery=3, want 10", sampled)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2, 1)
	var ids []string
	for i := 0; i < 3; i++ {
		tc := tr.Start(fmt.Sprintf("t%d", i))
		ids = append(ids, tc.ID())
		tc.Finish()
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("oldest trace must be evicted at capacity 2")
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Get(id); !ok {
			t.Fatalf("trace %s evicted too early", id)
		}
	}
	recent := tr.Recent(10)
	if len(recent) != 2 || recent[0].Name != "t2" || recent[1].Name != "t1" {
		t.Fatalf("Recent = %+v", recent)
	}
}

// TestNilSafety pins the zero-cost-when-disabled contract: every method
// chain on a nil tracer/trace/span must be a safe no-op.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tc := tr.Start("q")
	if tc != nil {
		t.Fatal("nil tracer must return nil trace")
	}
	if tc.ID() != "" {
		t.Fatal("nil trace id")
	}
	tc.StartSpan("s").Attr("k", "v").End()
	tc.StartSpan("s").EndErr(errors.New("x"))
	tc.AddSpans([]SpanData{{Name: "w"}})
	tc.Finish()
	if got := tc.Spans(); got != nil {
		t.Fatalf("nil trace spans = %v", got)
	}
	if _, ok := tr.Get("x"); ok {
		t.Fatal("nil tracer Get")
	}
	if tr.Recent(5) != nil {
		t.Fatal("nil tracer Recent")
	}
	if tr.Start("q") != nil || tr.StartWithID("id", "q") != nil {
		t.Fatal("nil tracer Start/StartWithID")
	}

	var f *Inflight
	e := f.Register("query", "g", 2, 6, "count", "")
	e.SetStage("x")
	e.SeedDone()
	e.SetSeedsTotal(5)
	e.SetPredicted(time.Second)
	e.Done()
	if f.Snapshot() != nil {
		t.Fatal("nil inflight snapshot")
	}

	var sl *SlowLog
	sl.Record(map[string]int{"a": 1})
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	var h *Histogram
	h.Observe(1) // nil histogram must not panic
}

func TestDetachedTraceGraft(t *testing.T) {
	// Worker side: a detached trace records spans without any ring.
	wt := NewTrace("range")
	wt.StartSpan("enumerate").End()
	wt.Finish()
	spans := wt.Spans()
	if len(spans) != 1 {
		t.Fatalf("detached spans = %d", len(spans))
	}

	// Coordinator side: graft them into a ring-backed trace.
	tr := NewTracer(4, 1)
	job := tr.Start("job")
	job.StartSpan("lease").End()
	job.AddSpans(spans)
	job.Finish()
	td, _ := tr.Get(job.ID())
	if len(td.Spans) != 2 {
		t.Fatalf("stitched spans = %d, want 2", len(td.Spans))
	}
}

func TestTraceSpanCap(t *testing.T) {
	tc := NewTrace("big")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tc.StartSpan("s").End()
	}
	tc.mu.Lock()
	stored, dropped := len(tc.data.Spans), tc.data.Dropped
	tc.mu.Unlock()
	if stored != maxSpansPerTrace || dropped != 10 {
		t.Fatalf("stored %d dropped %d, want %d/10", stored, dropped, maxSpansPerTrace)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	if len(id) != 32 {
		t.Fatalf("trace id %q: want 32 hex chars", id)
	}
	h := Traceparent(id)
	if !strings.HasPrefix(h, "00-"+id+"-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q malformed", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != id {
		t.Fatalf("ParseTraceparent(%q) = %q, %v", h, got, ok)
	}
	for _, bad := range []string{"", "00-zz-ff-01", "00-abc-01", "garbage", "00-" + id[:30] + "-0011223344556677-01"} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
	if Traceparent("") != "" {
		t.Fatal("empty trace id must produce empty header")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context must carry no trace")
	}
	if ContextWith(ctx, nil) != ctx {
		t.Fatal("nil trace must not wrap the context")
	}
	tc := NewTrace("x")
	if got := FromContext(ContextWith(ctx, tc)); got != tc {
		t.Fatalf("FromContext = %p, want %p", got, tc)
	}
}

// TestTraceConcurrent drives spans, grafts and a Finish from many
// goroutines; the -race CI job is the real assertion.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer(16, 1)
	tc := tr.Start("busy")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := tc.StartSpan("s").Attr("i", fmt.Sprint(i))
				if j%2 == 0 {
					sp.End()
				} else {
					sp.EndErr(context.Canceled)
				}
				tc.AddSpans([]SpanData{{Name: "graft", Status: "ok"}})
			}
		}(i)
	}
	wg.Wait()
	tc.Finish()
	if _, ok := tr.Get(tc.ID()); !ok {
		t.Fatal("trace missing after concurrent use")
	}
}
