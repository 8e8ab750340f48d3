package server

// Tests for the observability plane: Prometheus exposition well-formedness,
// the pinned set of exported metric families, request tracing end to end
// — including the coordinator→worker stitched distributed trace — the
// /debug/queries in-flight snapshot, the admission-wait warning, and the
// slow-query log.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// scrapeMetrics fetches /metrics and returns the raw exposition text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// sampleFamily maps a sample line's metric name to its family: histogram
// series fold their _bucket/_sum/_count suffix away.
func sampleFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// TestMetricsPromWellFormed scrapes /metrics after real traffic and parses
// every line: each sample must belong to a family that already emitted
// # HELP and # TYPE, counters must end in _total, and histogram families
// must expose cumulative buckets whose +Inf count equals _count.
func TestMetricsPromWellFormed(t *testing.T) {
	_, hs := newTestServer(t, Config{
		JobsDir:    filepath.Join(t.TempDir(), "jobs"),
		ClusterDir: filepath.Join(t.TempDir(), "cluster"),
	})
	if code, _ := postQuery(t, hs.URL, `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`); code != http.StatusOK {
		t.Fatalf("seed query: status %d", code)
	}

	body := scrapeMetrics(t, hs.URL)
	helped := map[string]bool{}
	typed := map[string]string{}
	type histState struct {
		buckets []float64 // cumulative counts in order of appearance
		count   float64
		hasInf  bool
		infVal  float64
	}
	hists := map[string]*histState{}
	sawSample := map[string]bool{}

	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			fam, help, ok := strings.Cut(name, " ")
			if !ok || strings.TrimSpace(help) == "" {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[fam] = true
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam, typ, _ := strings.Cut(name, " ")
			typed[fam] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment %q", ln+1, line)
			continue
		}
		// Sample line: name[{labels}] value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			t.Errorf("line %d: unparseable sample %q", ln+1, line)
			continue
		}
		name := line[:nameEnd]
		fam := sampleFamily(name)
		sawSample[fam] = true
		if !strings.HasPrefix(fam, "kplexd_") {
			t.Errorf("line %d: metric %q not kplexd_-prefixed", ln+1, name)
		}
		if !helped[fam] {
			t.Errorf("line %d: sample %q has no preceding # HELP %s", ln+1, name, fam)
		}
		typ := typed[fam]
		if typ == "" {
			t.Errorf("line %d: sample %q has no preceding # TYPE %s", ln+1, name, fam)
			continue
		}
		valStr := line[strings.LastIndexByte(line, ' ')+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
			continue
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("line %d: counter sample %q lacks _total suffix", ln+1, name)
			}
			if val < 0 {
				t.Errorf("line %d: negative counter %q = %v", ln+1, name, val)
			}
		case "gauge":
			// Occupancy gauges; any finite value is fine.
		case "histogram":
			h := hists[fam]
			if h == nil {
				h = &histState{}
				hists[fam] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				h.buckets = append(h.buckets, val)
				if strings.Contains(line, `le="+Inf"`) {
					h.hasInf = true
					h.infVal = val
				}
			case strings.HasSuffix(name, "_count"):
				h.count = val
			}
		default:
			t.Errorf("line %d: unexpected TYPE %q for %s", ln+1, typ, fam)
		}
	}

	for fam, h := range hists {
		if !h.hasInf {
			t.Errorf("histogram %s: no +Inf bucket", fam)
		} else if h.infVal != h.count {
			t.Errorf("histogram %s: +Inf bucket %v != count %v", fam, h.infVal, h.count)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Errorf("histogram %s: bucket counts not cumulative at index %d (%v < %v)",
					fam, i, h.buckets[i], h.buckets[i-1])
			}
		}
	}

	// The traffic above must show up in the right families.
	for _, fam := range []string{
		"kplexd_queries_total",
		"kplexd_query_duration_seconds",
		"kplexd_admission_wait_seconds",
		"kplexd_cost_model_log_error",
		"kplexd_wal_fsync_duration_seconds",
		"kplexd_lease_duration_seconds",
	} {
		if !sawSample[fam] {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if h := hists["kplexd_query_duration_seconds"]; h == nil || h.count < 1 {
		t.Errorf("query duration histogram did not record the seed query: %+v", h)
	}
}

// updateFamilies regenerates testdata/metrics_families.txt. The file pins
// the exported surface, so regenerate it only for a deliberate change to
// a metric's name, type or help.
var updateFamilies = flag.Bool("update", false, "rewrite testdata/metrics_families.txt")

// TestMetricsFamiliesGolden pins what the server exports: every /metrics
// family as (name, TYPE, HELP) and the key set of the /stats counters,
// with the job and cluster subsystems enabled and one query served so the
// per-tenant families are populated. Scrapers read the names and perf
// reads the /stats keys, so any change to either shows up here as a diff
// against the committed file.
func TestMetricsFamiliesGolden(t *testing.T) {
	_, hs := newTestServer(t, Config{
		JobsDir:    filepath.Join(t.TempDir(), "jobs"),
		ClusterDir: filepath.Join(t.TempDir(), "cluster"),
	})
	if code, _ := postQuery(t, hs.URL, `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`); code != http.StatusOK {
		t.Fatalf("seed query: status %d", code)
	}

	help := map[string]string{}
	typ := map[string]string{}
	for _, line := range strings.Split(scrapeMetrics(t, hs.URL), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
		}
	}
	families := make([]string, 0, len(typ))
	for name := range typ {
		families = append(families, name)
	}
	sort.Strings(families)
	var sb strings.Builder
	for _, name := range families {
		fmt.Fprintf(&sb, "metric %s %s %s\n", name, typ[name], help[name])
	}
	counters := stats(t, hs.URL)
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "stats %s\n", k)
	}

	path := filepath.Join("testdata", "metrics_families.txt")
	if *updateFamilies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("exported metric surface differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// getTrace fetches one finished trace from base's introspection plane,
// polling briefly: traces are stored when the handler's deferred Finish
// runs, which can land just after the client sees the response.
func getTrace(t *testing.T, base, id string) obs.TraceData {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var td obs.TraceData
			if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return td
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in /debug/traces", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// spansNamed returns td's spans with the given name.
func spansNamed(td obs.TraceData, name string) []obs.SpanData {
	var out []obs.SpanData
	for _, sp := range td.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestQueryTraceLifecycle runs one uncached query and walks its trace:
// the response carries X-Trace-Id, and the stored trace holds the
// singleflight, admission, prepare and enumerate spans with ok status.
func TestQueryTraceLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Post(hs.URL+"/query", "application/json",
		strings.NewReader(`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header on /query response")
	}

	td := getTrace(t, hs.URL, id)
	if td.ID != id {
		t.Errorf("trace id %q, want %q", td.ID, id)
	}
	for _, name := range []string{"singleflight", "admission", "prepare", "enumerate"} {
		spans := spansNamed(td, name)
		if len(spans) != 1 {
			t.Errorf("span %q: %d occurrences, want 1", name, len(spans))
			continue
		}
		if spans[0].Status != "ok" {
			t.Errorf("span %q status %q, want ok", name, spans[0].Status)
		}
	}
	enum := spansNamed(td, "enumerate")
	if len(enum) == 1 {
		if enum[0].DurationMS <= 0 {
			t.Errorf("enumerate span duration %v, want > 0", enum[0].DurationMS)
		}
		if enum[0].Attrs["seedBuildMs"] == "" || enum[0].Attrs["branchMs"] == "" {
			t.Errorf("enumerate span missing phase-split attrs: %v", enum[0].Attrs)
		}
	}

	// A repeat of the same query is a cache hit: its own trace, with a
	// cache span instead of an enumeration.
	resp2, err := http.Post(hs.URL+"/query", "application/json",
		strings.NewReader(`{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	id2 := resp2.Header.Get("X-Trace-Id")
	if id2 == "" || id2 == id {
		t.Fatalf("cache-hit trace id %q (first was %q)", id2, id)
	}
	td2 := getTrace(t, hs.URL, id2)
	if hit := spansNamed(td2, "cache"); len(hit) != 1 || hit[0].Attrs["hit"] != "true" {
		t.Errorf("cache-hit trace lacks cache span: %+v", td2.Spans)
	}
	if enum := spansNamed(td2, "enumerate"); len(enum) != 0 {
		t.Errorf("cache-hit trace has %d enumerate spans, want 0", len(enum))
	}
}

// TestDistributedTracePropagation runs a 4-range job over two real worker
// processes and retrieves ONE stitched trace from the coordinator: its own
// prepare, per-range lease and merge spans plus the workers' admission,
// prepare and enumerate spans — shipped over the wire via the Traceparent
// header and the Done line — all tagged with the worker that ran them.
func TestDistributedTracePropagation(t *testing.T) {
	_, w1 := newTestServer(t, Config{})
	_, w2 := newTestServer(t, Config{})
	_, coord := newTestServer(t, Config{
		ClusterDir:     filepath.Join(t.TempDir(), "cluster"),
		ClusterWorkers: []string{w1.URL, w2.URL},
	})

	const nRanges = 4
	resp, body := postJSON(t, coord.URL+"/cluster/jobs",
		fmt.Sprintf(`{"graph":"corpus:planted-a","k":2,"q":6,"topn":5,"ranges":%d}`, nRanges))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var man jobs.Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	view := waitClusterJob(t, coord.URL, man.ID)
	if view.State != "done" {
		t.Fatalf("job state %q: %s", view.State, view.Error)
	}
	if view.TraceID == "" {
		t.Fatal("terminal manifest has no traceId")
	}

	td := getTrace(t, coord.URL, view.TraceID)
	if td.ID != view.TraceID {
		t.Errorf("trace id %q, want %q", td.ID, view.TraceID)
	}
	if !strings.Contains(td.Name, man.ID) {
		t.Errorf("trace name %q does not reference job %s", td.Name, man.ID)
	}

	// Coordinator-side spans.
	if spans := spansNamed(td, "merge"); len(spans) != 1 {
		t.Errorf("merge spans: %d, want 1", len(spans))
	} else if spans[0].Status != "ok" {
		t.Errorf("merge span status %q", spans[0].Status)
	}
	leases := spansNamed(td, "lease")
	okLeases := 0
	for _, sp := range leases {
		if sp.Attrs["worker"] == "" {
			t.Errorf("lease span without worker attr: %+v", sp)
		}
		if sp.Status == "ok" {
			okLeases++
			if sp.DurationMS <= 0 {
				t.Errorf("ok lease span with zero duration: %+v", sp)
			}
		}
	}
	if okLeases < nRanges {
		t.Errorf("successful lease spans: %d, want >= %d", okLeases, nRanges)
	}

	// Worker-side spans, grafted into the same trace. Every grafted span
	// carries the worker attr the dispatcher stamped; the enumerate spans
	// are the ones guaranteed to take measurable time.
	workers := map[string]bool{}
	for _, name := range []string{"admission", "enumerate"} {
		grafted := 0
		for _, sp := range spansNamed(td, name) {
			if w := sp.Attrs["worker"]; w != "" {
				grafted++
				workers[w] = true
				if sp.Status != "ok" {
					t.Errorf("worker %s span status %q: %+v", name, sp.Status, sp)
				}
			}
		}
		if grafted < nRanges {
			t.Errorf("grafted worker %q spans: %d, want >= %d", name, grafted, nRanges)
		}
	}
	for _, sp := range spansNamed(td, "enumerate") {
		if sp.Attrs["worker"] != "" && sp.DurationMS <= 0 {
			t.Errorf("worker enumerate span with zero duration: %+v", sp)
		}
	}
	for _, w := range []string{w1.URL, w2.URL} {
		if !workers[w] {
			t.Logf("note: worker %s contributed no spans (all ranges landed on one worker)", w)
		}
	}
	if len(workers) == 0 {
		t.Error("no worker URL appears in any grafted span")
	}

	// The lease round-trips were histogrammed.
	if !strings.Contains(scrapeMetrics(t, coord.URL), "kplexd_lease_duration_seconds_count") {
		t.Error("lease duration histogram missing from coordinator /metrics")
	}
}

// TestStreamDisconnectTraceCancelled abandons a stream mid-flight and
// checks the trace scores the enumeration as "cancelled" — a client going
// away is not a server failure.
func TestStreamDisconnectTraceCancelled(t *testing.T) {
	dir := t.TempDir()
	if err := graph.WriteFormatFile(filepath.Join(dir, "big.bin"), gen.GNP(300, 0.25, 9), graph.FormatBinary); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir, StreamBuffer: 4})

	resp, err := http.Get(hs.URL + "/stream?graph=big.bin&k=3&q=6&threads=2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header on /stream response")
	}
	if plexes, _ := readStream(t, resp.Body, 4); len(plexes) < 4 {
		t.Fatalf("read %d plexes before disconnecting", len(plexes))
	}
	resp.Body.Close() // drop the client mid-stream

	td := getTrace(t, hs.URL, id)
	enum := spansNamed(td, "enumerate")
	if len(enum) != 1 {
		t.Fatalf("enumerate spans: %d, want 1 (%+v)", len(enum), td.Spans)
	}
	if enum[0].Status != "cancelled" {
		t.Errorf("enumerate span status %q, want cancelled", enum[0].Status)
	}
	if enum[0].Status == "failed" {
		t.Error("client disconnect scored as server failure")
	}
}

// TestDebugQueriesInflight holds a stream open against a tiny buffer so
// the enumeration blocks mid-run, then snapshots /debug/queries: the
// stream must be visible with its stage, seed counts and trace id, and the
// snapshot must drain once the stream is gone.
func TestDebugQueriesInflight(t *testing.T) {
	dir := t.TempDir()
	// Big enough that the stream blocks for the snapshot, small enough
	// that the cancelled enumeration unwinds quickly under -race.
	if err := graph.WriteFormatFile(filepath.Join(dir, "big.bin"), gen.GNP(150, 0.3, 9), graph.FormatBinary); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir, StreamBuffer: 2})

	resp, err := http.Get(hs.URL + "/stream?graph=big.bin&k=3&q=6")
	if err != nil {
		t.Fatal(err)
	}
	if plexes, _ := readStream(t, resp.Body, 1); len(plexes) != 1 {
		t.Fatal("stream produced nothing")
	}

	var snap struct {
		Inflight []obs.QueryInfo `json:"inflight"`
	}
	if code := getJSON(t, hs.URL+"/debug/queries", &snap); code != http.StatusOK {
		t.Fatalf("/debug/queries status %d", code)
	}
	var entry *obs.QueryInfo
	for i := range snap.Inflight {
		if snap.Inflight[i].Kind == "stream" {
			entry = &snap.Inflight[i]
		}
	}
	if entry == nil {
		t.Fatalf("blocked stream not in /debug/queries: %+v", snap.Inflight)
	}
	if entry.Graph != "big.bin" || entry.K != 3 || entry.Q != 6 {
		t.Errorf("entry identifies wrong query: %+v", entry)
	}
	if entry.Stage != "enumerate" {
		t.Errorf("stage %q, want enumerate", entry.Stage)
	}
	if entry.SeedsTotal <= 0 {
		t.Errorf("seedsTotal %d, want > 0", entry.SeedsTotal)
	}
	if entry.TraceID == "" {
		t.Error("in-flight entry has no trace id")
	}
	if entry.AgeMS < 0 {
		t.Errorf("ageMs %v negative", entry.AgeMS)
	}

	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second) // -race slows the unwind
	for {
		var after struct {
			Inflight []obs.QueryInfo `json:"inflight"`
		}
		getJSON(t, hs.URL+"/debug/queries", &after)
		if len(after.Inflight) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight snapshot never drained: %+v", after.Inflight)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAdmissionWaitWarning saturates admission and checks that a waiter
// past Config.AdmissionWarnAfter logs a structured warning naming the wait
// — queued work must be visible, not silent — and that the wait lands in
// the admission histogram once the slot frees.
func TestAdmissionWaitWarning(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s, err := New(Config{
		MaxConcurrent:      1,
		AdmissionWarnAfter: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blocker, err := s.qos.Admit(context.Background(), "blocker")
	if err != nil {
		t.Fatal(err) // one free slot: this must grant immediately
	}
	done := make(chan error, 1)
	go func() {
		release, err := s.admitJob(context.Background(), "default")
		if err == nil {
			release()
		}
		done <- err
	}()

	// The warning must arrive while the waiter is still queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no admission warning logged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	blocker() // free the slot
	if err := <-done; err != nil {
		t.Fatalf("admitJob after slot freed: %v", err)
	}

	mu.Lock()
	line := lines[0]
	mu.Unlock()
	var warn struct {
		Level         string  `json:"level"`
		Msg           string  `json:"msg"`
		WaitedMS      float64 `json:"waitedMs"`
		WarnAfterMS   float64 `json:"warnAfterMs"`
		MaxConcurrent int     `json:"maxConcurrent"`
	}
	if err := json.Unmarshal([]byte(line), &warn); err != nil {
		t.Fatalf("warning is not structured JSON: %q: %v", line, err)
	}
	if warn.Level != "warn" || !strings.Contains(warn.Msg, "admission") {
		t.Errorf("unexpected warning: %+v", warn)
	}
	if warn.WaitedMS < warn.WarnAfterMS {
		t.Errorf("waitedMs %v below warnAfterMs %v", warn.WaitedMS, warn.WarnAfterMS)
	}
	if warn.MaxConcurrent != 1 {
		t.Errorf("maxConcurrent %d, want 1", warn.MaxConcurrent)
	}
	if snap := s.met.AdmissionWait.Snapshot(); snap.Count < 1 {
		t.Errorf("admission wait histogram count %d, want >= 1", snap.Count)
	}
}

// TestSlowQueryLog lowers the slow threshold to a nanosecond so every
// request qualifies, runs one query, and checks the NDJSON record.
func TestSlowQueryLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.ndjson")
	_, hs := newTestServer(t, Config{
		SlowQueryLog:       path,
		SlowQueryThreshold: time.Nanosecond,
	})
	if code, _ := postQuery(t, hs.URL, `{"graph":"corpus:planted-a","k":2,"q":6,"mode":"count"}`); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}

	// The record is written by a deferred func after the response; poll.
	var rec slowRecord
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			if line, _, ok := strings.Cut(strings.TrimSpace(string(data)), "\n"); ok || line != "" {
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("slow log line not JSON: %q: %v", line, err)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("slow-query log never written")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rec.Kind != "query" || rec.Graph != "corpus:planted-a" || rec.K != 2 || rec.Q != 6 {
		t.Errorf("slow record identifies wrong query: %+v", rec)
	}
	if rec.ElapsedMS <= 0 {
		t.Errorf("elapsedMs %v, want > 0", rec.ElapsedMS)
	}
	if rec.TraceID == "" {
		t.Error("slow record has no trace id")
	}
	if rec.Time.IsZero() {
		t.Error("slow record has no start time")
	}
}
