// Package obs is kplexd's dependency-free observability layer: request
// trace spans with a ring-buffered recorder, fixed-bucket latency
// histograms with a spec-compliant Prometheus text writer, an in-flight
// query registry backing /debug/queries, and a rotating slow-query log.
//
// Every type is designed to be threaded through hot paths at near-zero
// cost when disabled: an unsampled request yields a nil *Trace, and all
// Trace/Span/Tracer methods are nil-receiver safe, so call sites never
// branch on "is tracing on".
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds the memory of a single trace. Long-running jobs
// record one span per WAL checkpoint; a runaway producer must not grow a
// ring entry without bound. Spans beyond the cap are counted, not stored.
const maxSpansPerTrace = 512

// SpanData is one finished span. Start is absolute wall-clock time so
// spans recorded on different machines (coordinator and workers) can be
// stitched into one trace; sub-millisecond skew between hosts is accepted
// as-is rather than papered over.
type SpanData struct {
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	// Status is "ok", "cancelled" (the client went away) or "failed".
	Status string            `json:"status"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// TraceData is one finished trace as served by GET /debug/traces/{id}.
type TraceData struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationMS float64    `json:"durationMs"`
	Spans      []SpanData `json:"spans"`
	// Dropped counts spans discarded beyond maxSpansPerTrace.
	Dropped int `json:"droppedSpans,omitempty"`
}

// Tracer records finished traces into a fixed-capacity ring buffer,
// evicting the oldest entry when full, and samples 1 in every N eligible
// Start calls. The zero of *Tracer (nil) is a valid no-op tracer.
type Tracer struct {
	capacity    int
	sampleEvery int64
	counter     atomic.Int64

	mu    sync.Mutex
	byID  map[string]int // trace id -> index into ring
	ring  []TraceData
	next  int // next ring slot to overwrite
	count int // live entries (<= capacity)
}

// NewTracer returns a tracer keeping the last capacity finished traces
// and sampling one in every sampleEvery Start calls. Non-positive values
// fall back to 256 and 1 (trace everything).
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	return &Tracer{
		capacity:    capacity,
		sampleEvery: int64(sampleEvery),
		byID:        make(map[string]int, capacity),
		ring:        make([]TraceData, capacity),
	}
}

// Start begins a new trace if the sampling counter selects this call, and
// returns nil otherwise. A nil result is safe to use: every Trace and
// Span method no-ops on a nil receiver.
func (tr *Tracer) Start(name string) *Trace {
	if tr == nil {
		return nil
	}
	if tr.counter.Add(1)%tr.sampleEvery != 0 {
		return nil
	}
	return tr.StartWithID(NewTraceID(), name)
}

// StartWithID begins a trace under a caller-chosen id — the propagation
// path: a request arriving with a Traceparent header continues the
// upstream trace so the coordinator and its workers agree on one id.
func (tr *Tracer) StartWithID(id, name string) *Trace {
	if tr == nil || id == "" {
		return nil
	}
	return &Trace{
		tr: tr,
		data: TraceData{
			ID:    id,
			Name:  name,
			Start: time.Now(),
		},
	}
}

// Get returns the finished trace with the given id, if still in the ring.
func (tr *Tracer) Get(id string) (TraceData, bool) {
	if tr == nil {
		return TraceData{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	i, ok := tr.byID[id]
	if !ok {
		return TraceData{}, false
	}
	return tr.ring[i], true
}

// Recent returns up to n finished traces, newest first.
func (tr *Tracer) Recent(n int) []TraceData {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n > tr.count {
		n = tr.count
	}
	out := make([]TraceData, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, tr.ring[(tr.next-i+tr.capacity)%tr.capacity])
	}
	return out
}

// store commits a finished trace, evicting the oldest entry when full.
func (tr *Tracer) store(td TraceData) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if old := tr.ring[tr.next]; old.ID != "" {
		// Only drop the index if it still points at the slot being
		// recycled — a newer trace may have reused the id (job resume).
		if j, ok := tr.byID[old.ID]; ok && j == tr.next {
			delete(tr.byID, old.ID)
		}
	}
	tr.ring[tr.next] = td
	tr.byID[td.ID] = tr.next
	tr.next = (tr.next + 1) % tr.capacity
	if tr.count < tr.capacity {
		tr.count++
	}
}

// Trace is an in-progress trace. It is safe for concurrent use, and all
// methods no-op on a nil receiver so call sites need no sampling checks.
// A Trace created by NewTrace is detached: it records spans without a
// tracer, for export via Spans() — the cluster-worker side of a stitched
// distributed trace.
type Trace struct {
	tr *Tracer // nil for detached traces

	mu   sync.Mutex
	data TraceData
	done bool
}

// NewTrace returns a detached trace: spans are recorded and can be
// extracted with Spans(), but Finish does not store anything. Cluster
// workers use this to record their share of a coordinator's trace and
// ship the spans back in-band rather than into their own ring (where a
// duplicated trace id would shadow local traces).
func NewTrace(name string) *Trace {
	return &Trace{data: TraceData{ID: NewTraceID(), Name: name, Start: time.Now()}}
}

// ID returns the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.data.ID
}

// StartSpan begins a span inside the trace. Returns nil (safe) on a nil
// trace.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: time.Now()}
}

// AddSpans grafts externally recorded spans (a worker's share of a
// distributed trace) into this trace.
func (t *Trace) AddSpans(spans []SpanData) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sd := range spans {
		t.addLocked(sd)
	}
}

func (t *Trace) addLocked(sd SpanData) {
	if len(t.data.Spans) >= maxSpansPerTrace {
		t.data.Dropped++
		return
	}
	t.data.Spans = append(t.data.Spans, sd)
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.data.Spans))
	copy(out, t.data.Spans)
	return out
}

// Finish seals the trace and commits it to the tracer's ring buffer.
// Finishing twice is a no-op, as is finishing a detached or nil trace.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.data.DurationMS = durationMS(time.Since(t.data.Start))
	td := t.data
	// Deep-copy the span slice so post-Finish AddSpans (a straggling
	// speculative lease) cannot alias the stored snapshot.
	td.Spans = make([]SpanData, len(t.data.Spans))
	copy(td.Spans, t.data.Spans)
	tr := t.tr
	t.mu.Unlock()
	if tr != nil {
		tr.store(td)
	}
}

// Span is one in-progress span. All methods no-op on a nil receiver.
type Span struct {
	t     *Trace
	name  string
	start time.Time

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// Attr attaches a key/value attribute and returns the span for chaining.
func (s *Span) Attr(k, v string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
	s.mu.Unlock()
	return s
}

// Exclude takes d out of the span: time spent inside it on work that
// another span accounts for. The recorded start moves later by d, so the
// span keeps its end and its duration counts only the rest.
func (s *Span) Exclude(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.start = s.start.Add(d)
	s.mu.Unlock()
}

// End finishes the span with status "ok".
func (s *Span) End() { s.EndStatus("ok") }

// EndErr finishes the span, classifying err: nil is "ok", a cancelled or
// deadline-exceeded context is "cancelled" (the client went away — not a
// server fault), anything else is "failed" with the error as an attr.
func (s *Span) EndErr(err error) {
	switch {
	case err == nil:
		s.EndStatus("ok")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		strings.Contains(err.Error(), context.Canceled.Error()):
		s.EndStatus("cancelled")
	default:
		s.Attr("error", err.Error())
		s.EndStatus("failed")
	}
}

// EndStatus finishes the span with an explicit status. Ending twice
// records only the first end.
func (s *Span) EndStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		Name:       s.name,
		Start:      s.start,
		DurationMS: durationMS(time.Since(s.start)),
		Status:     status,
		Attrs:      s.attrs,
	}
	s.mu.Unlock()
	t := s.t
	t.mu.Lock()
	t.addLocked(sd)
	t.mu.Unlock()
}

func durationMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// TraceparentHeader is the HTTP header carrying trace propagation across
// the coordinator -> worker hop, shaped like W3C traceparent:
// "00-<32 hex trace id>-<16 hex span id>-01".
const TraceparentHeader = "Traceparent"

// NewTraceID returns a 32-hex-digit random trace id.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a time-derived id rather than panicking in a hot path.
		now := time.Now().UnixNano()
		for i := 0; i < 8; i++ {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Traceparent formats a propagation header value for the given trace id.
// An empty id yields "" (callers skip setting the header).
func Traceparent(traceID string) string {
	if traceID == "" {
		return ""
	}
	var span [8]byte
	rand.Read(span[:]) //nolint:errcheck // best-effort; zero span id is still valid
	return "00-" + traceID + "-" + hex.EncodeToString(span[:]) + "-01"
}

// ParseTraceparent extracts the trace id from a propagation header value.
func ParseTraceparent(h string) (string, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return "", false
	}
	if _, err := hex.DecodeString(parts[1]); err != nil {
		return "", false
	}
	return parts[1], true
}

type ctxKey struct{}

// ContextWith returns ctx carrying the trace (nil trace returns ctx
// unchanged).
func ContextWith(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
